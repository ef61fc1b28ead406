package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lfo/internal/features"
	"lfo/internal/gbdt"
)

// fuzzFrameMax is the frame bound the fuzz target reads under — small
// enough that a genuine over-allocation would show up immediately as an
// OOM-ish allocation spike rather than hide under the default 64 MiB cap.
const fuzzFrameMax = 1 << 20

// fuzzSeed is one entry of FuzzFrameDecode's seed corpus; a named one is
// also committed under testdata/fuzz.
type fuzzSeed struct {
	name string
	data []byte
}

// fuzzSeeds returns the seed corpus in f.Add order. The "predict" seeds
// are opcode-1 frames carrying feature rows, the retired request format:
// the server must refuse them as requests.
func fuzzSeeds() []fuzzSeed {
	admit := appendAdmit(nil, 1<<63|5, []AdmitRequest{{Time: 1, ID: 2, Size: 3, Cost: 4, Free: 5}, {Time: 6, ID: 7}, {Cost: -1}})
	return []fuzzSeed{
		{"seed-predict-row", appendProbs(nil, 9, make([]float64, features.Dim))},
		{"seed-admit-row", appendAdmit(nil, 7, []AdmitRequest{{Time: 1, ID: 2, Size: 3, Cost: 4, Free: 5}})},
		{"seed-response", appendProbs(nil, 7, []float64{0.25, 0.75})},
		{"seed-error-frame", appendRaw(nil, opError, 8, []byte("remote error text"))},
		{"", []byte{}},
		// Degenerate shapes: a length word of 0, a truncated length word,
		// a truncated header, bodies that are not whole rows, a huge claim.
		{"seed-empty-frame", []byte{0, 0, 0, 0}},
		{"seed-short-header", []byte{5, 0}},
		{"seed-truncated", []byte{12, 0, 0, 0, opAdmit, 1, 2, 3}},
		{"seed-lying-predict", appendRaw(nil, opProbs, 1, []byte{0xff, 0xff, 0xff, 0xff, 0xff})},
		{"seed-lying-admit", appendRaw(nil, opAdmit, 2, []byte{9, 9, 9, 9, 9, 9, 9})},
		{"seed-huge-claim", []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}},
		{"seed-admit-batch", admit},
		{"seed-predict-batch", appendProbs(nil, 2, randRows(2, 1))},
		{"seed-response-nan", appendProbs(nil, 3, []float64{features.Missing, -0.0, 1})},
		{"seed-error-empty", appendRaw(nil, opError, 4, nil)},
		{"seed-model-swap", appendRaw(nil, opModel, 3, []byte{1, 2, 3, 4})},
		{"seed-model-ack", appendRaw(nil, opModel, 3, nil)},
		{"seed-short-frame", []byte{4, 0, 0, 0, opAdmit, 1, 2, 3}},
		{"seed-unknown-op", appendRaw(nil, 0x7f, 5, nil)},
		{"seed-truncated-admit", admit[:len(admit)-10]},
		{"seed-empty-model", appendRaw(nil, opModel, 9, nil)},
	}
}

// FuzzFrameDecode feeds arbitrary bytes through the one frame codec and
// the server's dispatch. Nothing may panic; the reader may not allocate
// anywhere near a lying length word's claim (it grows its buffer only as
// bytes arrive); an admit body that decodes holds exactly its rows × 40
// bytes; every frame that decodes re-encodes to its own bytes bit for
// bit; and the server's reply to it is one well-formed frame under the
// request's tag, an error for any request but an admit batch or a model
// push.
func FuzzFrameDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s.data)
	}
	model := &gbdt.Model{Dim: features.Dim, BaseScore: 1}
	if err := model.Compile(); err != nil {
		f.Fatal(err)
	}
	srv := New(model, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		fr, err := readFrame(bytes.NewReader(data), &buf, fuzzFrameMax)
		if c := cap(buf); c > max(hdrBytes+frameAllocChunk, 2*len(data)) {
			t.Fatalf("read %d bytes into a %d-byte buffer", len(data), c)
		}
		if err != nil {
			return
		}
		var again []byte
		switch fr.op {
		case opProbs:
			if probs, err := decodeFloats(fr.body, nil); err == nil {
				again = appendProbs(nil, fr.tag, probs)
			}
		case opAdmit:
			if reqs, err := decodeAdmit(fr.body, nil); err == nil {
				if admitRowBytes*len(reqs) != len(fr.body) {
					t.Fatalf("%d admit tuples from a %d-byte body", len(reqs), len(fr.body))
				}
				again = appendAdmit(nil, fr.tag, reqs)
			}
		default:
			again = appendRaw(nil, fr.op, fr.tag, fr.body)
		}
		if wire := data[:hdrBytes+len(fr.body)]; again != nil && !bytes.Equal(again, wire) {
			t.Fatalf("re-encoded frame differs:\n%x\n%x", again, wire)
		}

		var cs connState
		reply, err := readFrame(bytes.NewReader(srv.respond(&cs, fr, nil)), &buf, maxFramePayload)
		if err != nil || reply.tag != fr.tag {
			t.Fatalf("reply to op %#x tag %d: tag %d, err %v", fr.op, fr.tag, reply.tag, err)
		}
		if fr.op != opAdmit && fr.op != opModel && reply.op != opError {
			t.Fatalf("request op %#x answered with op %#x, want a refusal", fr.op, reply.op)
		}
	})
}

// muxFuzzVersion is the model version FuzzMuxFrameDecode's rollout waits
// to see acked.
const muxFuzzVersion = 3

// muxFuzzSeeds returns FuzzMuxFrameDecode's seed corpus in f.Add order:
// reply streams as a server could send them to a MuxConn.
func muxFuzzSeeds() []fuzzSeed {
	return []fuzzSeed{
		{"seed-mux-admit", appendProbs(nil, 7, []float64{0.5})},
		{"seed-mux-predict", appendProbs(appendProbs(nil, 9, []float64{0.1, 0.2}), 10, []float64{0.3})},
		{"seed-mux-response", appendProbs(nil, 7, []float64{0.25, features.Missing, -0.0})},
		{"seed-mux-error", appendRaw(nil, opError, 8, []byte("remote error text"))},
		{"seed-model-swap", appendRaw(nil, opModel, muxFuzzVersion, []byte{1, 2, 3, 4})},
		{"seed-model-ack", appendRaw(nil, opModel, muxFuzzVersion, nil)},
		{"seed-short-envelope", []byte{4, 0, 0, 0, opProbs, 1, 2, 3}},
		{"seed-empty-inner", appendProbs(nil, 0, nil)},
		{"seed-lying-inner", appendRaw(nil, opProbs, 5, []byte{0xff, 0xff, 0xff, 0xff, 0xff})},
		{"seed-empty-model", appendRaw(nil, opModel, 9, nil)},
	}
}

// FuzzMuxFrameDecode feeds arbitrary bytes to a MuxConn as its peer's
// reply stream, the client end of the codec FuzzFrameDecode drives from
// the server end. Nothing may panic; the reply buffer may not grow near a
// lying length word's claim; ReadResponse returns, frame after frame, what
// readFrame reads from the same bytes — an accepted reply re-encodes to
// its own bytes bit for bit, an opError surfaces its message as a remote
// error, a body that is not whole probabilities or any other opcode is
// refused under the reply's tag; and Rollout succeeds exactly when the
// first frame is an empty opModel ack of the pushed version.
func FuzzMuxFrameDecode(f *testing.F) {
	for _, s := range muxFuzzSeeds() {
		f.Add(s.data)
	}
	model := &gbdt.Model{Dim: features.Dim, BaseScore: 1}
	if err := model.Compile(); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mc := NewMuxConn(&scriptConn{r: bytes.NewReader(data)})
		var buf []byte
		for off := 0; ; {
			want, wantErr := readFrame(bytes.NewReader(data[off:]), &buf, maxFramePayload)
			tag, probs, err := mc.ReadResponse()
			if c := cap(mc.rbuf); c > max(hdrBytes+frameAllocChunk, 2*len(data)) {
				t.Fatalf("read %d bytes into a %d-byte buffer", len(data), c)
			}
			if wantErr != nil {
				if err == nil {
					t.Fatalf("reply at offset %d accepted; readFrame: %v", off, wantErr)
				}
				break
			}
			if tag != want.tag {
				t.Fatalf("reply at offset %d: tag %d, want %d", off, tag, want.tag)
			}
			wire := data[off : off+hdrBytes+len(want.body)]
			off += len(wire)
			var remote remoteError
			switch {
			case want.op == opProbs && err == nil:
				if again := appendProbs(nil, tag, probs); !bytes.Equal(again, wire) {
					t.Fatalf("re-encoded reply differs:\n%x\n%x", again, wire)
				}
			case want.op == opProbs:
				if !errors.Is(err, errRowShape) || len(want.body)%8 == 0 {
					t.Fatalf("%d-byte reply body refused: %v", len(want.body), err)
				}
			case want.op == opError:
				if !errors.As(err, &remote) || string(remote) != string(want.body) {
					t.Fatalf("error reply %q surfaced as %v", want.body, err)
				}
			default:
				if !errors.Is(err, errOpcode) {
					t.Fatalf("reply op %#x surfaced as %v", want.op, err)
				}
			}
		}

		err := NewMuxConn(&scriptConn{r: bytes.NewReader(data)}).Rollout(muxFuzzVersion, model)
		first, ferr := readFrame(bytes.NewReader(data), &buf, maxFramePayload)
		acked := ferr == nil && first.op == opModel && len(first.body) == 0 && first.tag == muxFuzzVersion
		if acked != (err == nil) {
			t.Fatalf("rollout of version %d: err %v against a first reply op %#x tag %d (%d-byte body, read err %v)",
				muxFuzzVersion, err, first.op, first.tag, len(first.body), ferr)
		}
	})
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpora under
// testdata/fuzz when LFO_REGEN_CORPUS=1 is set; otherwise it is a no-op.
// The committed files mirror the named f.Add seeds so `go test` (and the
// check.sh fuzz smoke) always replays them from a fresh checkout.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("LFO_REGEN_CORPUS") == "" {
		t.Skip("set LFO_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	for target, seeds := range map[string][]fuzzSeed{
		"FuzzFrameDecode":    fuzzSeeds(),
		"FuzzMuxFrameDecode": muxFuzzSeeds(),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, s := range seeds {
			if s.name == "" {
				continue
			}
			entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data)
			if err := os.WriteFile(filepath.Join(dir, s.name), []byte(entry), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// lyingReader hands out a 4-byte length word claiming a huge frame and
// then drips a few real bytes before EOF.
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

// TestReadFrameNoUpfrontAllocation pins the over-allocation bound the fuzz
// target watches for: a length word claiming most of the frame bound while
// only a handful of bytes follow must not make readFrame allocate the
// claimed size. Server and clients read through the same function under
// the same bound.
func TestReadFrameNoUpfrontAllocation(t *testing.T) {
	const claimed = 48 << 20
	r := &lyingReader{body: 100}
	binary.LittleEndian.PutUint32(r.header[:], claimed)

	var before, after runtime.MemStats
	var buf []byte
	runtime.ReadMemStats(&before)
	_, err := readFrame(r, &buf, maxFramePayload)
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
