package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lfo/internal/features"
)

// fuzzFrameMax is the frame bound the fuzz target reads under — small
// enough that a genuine over-allocation would show up immediately as an
// OOM-ish allocation spike rather than hide under the default 64 MiB cap.
const fuzzFrameMax = 1 << 20

// FuzzFrameDecode feeds arbitrary bytes through the whole frame codec:
// the length-prefixed reader and all three payload decoders. Nothing may
// panic, and readFrame may not allocate anywhere near a lying length
// header's claim (it grows the buffer only as bytes actually arrive).
func FuzzFrameDecode(f *testing.F) {
	// A valid single-row predict request.
	f.Add(frameBytes(encodePredictRequest(make([]float64, features.Dim), features.Dim)))
	// A valid compact admit request.
	f.Add(frameBytes(encodeAdmitRequest([]AdmitRequest{{Time: 1, ID: 2, Size: 3, Cost: 4, Free: 5}})))
	// A valid response and an error frame.
	f.Add(frameBytes(encodePredictResponse([]float64{0.25, 0.75})))
	f.Add(frameBytes(encodeError("remote error text")))
	// Degenerate shapes: empty input, empty frame, truncated header,
	// truncated payload, lying row counts, huge claimed length.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{5, 0})
	f.Add([]byte{8, 0, 0, 0, 1, 2, 3})
	f.Add(frameBytes([]byte{1, 0xff, 0xff, 0xff, 0xff}))
	f.Add(frameBytes([]byte{2, 0xff, 0xff, 0xff, 0xff, 9, 9}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data), fuzzFrameMax)
		if err != nil {
			return
		}
		if len(payload) > fuzzFrameMax {
			t.Fatalf("readFrame returned %d bytes past the %d cap", len(payload), fuzzFrameMax)
		}
		// Every decoder must handle every accepted frame without
		// panicking, whatever the opcode byte claims.
		if rows, err := decodePredictRequest(payload, features.Dim); err == nil {
			if len(rows)%features.Dim != 0 {
				t.Fatalf("decoded predict rows length %d not a multiple of dim", len(rows))
			}
		}
		if reqs, err := decodeAdmitRequest(payload, nil); err == nil {
			if len(payload) != 5+len(reqs)*admitRowBytes {
				t.Fatalf("decoded %d admit rows from %d payload bytes", len(reqs), len(payload))
			}
		}
		_, _ = decodePredictResponse(payload)
	})
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpus under
// testdata/fuzz when LFO_REGEN_CORPUS=1 is set; otherwise it is a no-op.
// The committed files mirror the in-code f.Add seeds so `go test` (and
// the check.sh fuzz smoke) always replays them from a fresh checkout.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("LFO_REGEN_CORPUS") == "" {
		t.Skip("set LFO_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	seeds := map[string][]byte{
		"seed-predict-row":   frameBytes(encodePredictRequest(make([]float64, features.Dim), features.Dim)),
		"seed-admit-row":     frameBytes(encodeAdmitRequest([]AdmitRequest{{Time: 1, ID: 2, Size: 3, Cost: 4, Free: 5}})),
		"seed-response":      frameBytes(encodePredictResponse([]float64{0.25, 0.75})),
		"seed-error-frame":   frameBytes(encodeError("remote error text")),
		"seed-empty-frame":   {0, 0, 0, 0},
		"seed-short-header":  {5, 0},
		"seed-truncated":     {8, 0, 0, 0, 1, 2, 3},
		"seed-lying-predict": frameBytes([]byte{1, 0xff, 0xff, 0xff, 0xff}),
		"seed-lying-admit":   frameBytes([]byte{2, 0xff, 0xff, 0xff, 0xff, 9, 9}),
		"seed-huge-claim":    {0xff, 0xff, 0xff, 0xff, 1, 2, 3},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzFrameDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func frameBytes(payload []byte) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// lyingReader hands out a 4-byte header claiming a huge frame and then
// drips a few real bytes before EOF.
type lyingReader struct {
	header [4]byte
	body   int
	pos    int
}

func (r *lyingReader) Read(p []byte) (int, error) {
	if r.pos < 4 {
		n := copy(p, r.header[r.pos:])
		r.pos += n
		return n, nil
	}
	if r.pos-4 >= r.body {
		return 0, io.EOF
	}
	if len(p) > 1 {
		p = p[:1] // drip one byte at a time
	}
	p[0] = 0xab
	r.pos++
	return 1, nil
}

// TestReadFrameNoUpfrontAllocation pins the over-allocation fix the fuzz
// target watches for: a header claiming the full frame bound while only
// delivering a handful of bytes must not make readFrame allocate the
// claimed size.
func TestReadFrameNoUpfrontAllocation(t *testing.T) {
	const claimed = 48 << 20
	r := &lyingReader{body: 100}
	binary.LittleEndian.PutUint32(r.header[:], claimed)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(r, 64<<20)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	// The 100 delivered bytes fit in the first chunk; total allocation
	// must stay around frameAllocChunk, nowhere near the claimed 48 MiB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("readFrame allocated %d bytes for a %d-byte delivery claiming %d", grew, 100, claimed)
	}
}
