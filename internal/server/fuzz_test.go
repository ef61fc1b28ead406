package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/iotest"

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
		// Streams of several frames, which the split deliveries cut at
		// every byte boundary: a pipeline of admit batches with a
		// refused opcode and a model push among them, a frame and half
		// the next, and frames before a frame-limit violation.
		{"seed-pipeline", appendAdmit(appendRaw(appendRaw(appendAdmit(nil, 1, []AdmitRequest{{Time: 1, ID: 2}}), 0x7f, 2, nil), opModel, 3, []byte{1, 2}), 4, []AdmitRequest{{Time: 2, ID: 2}, {Time: 3, ID: 9}})},
		{"seed-frame-and-half", append(appendAdmit(nil, 5, []AdmitRequest{{Time: 1, ID: 1}}), admit[:len(admit)/2]...)},
		{"seed-frames-then-huge", append(appendAdmit(appendAdmit(nil, 6, []AdmitRequest{{ID: 3}}), 7, nil), 0xff, 0xff, 0xff, 0xff, 1)},
	}
}

// splitMaxAll is the longest input whose every byte boundary the split
// deliveries cut at; a longer one is cut at splitSpread boundaries.
const (
	splitMaxAll = 256
	splitSpread = 64
)

// splitDeliveries returns readers that deliver data in pieces, as a
// stream socket may: one byte per Read, and in two Reads cut at every
// byte boundary (at splitSpread spread ones past splitMaxAll bytes).
func splitDeliveries(data []byte) []io.Reader {
	out := []io.Reader{iotest.OneByteReader(bytes.NewReader(data))}
	step := 1
	if len(data) > splitMaxAll {
		step = len(data)/splitSpread + 1
	}
	for k := 1; k < len(data); k += step {
		out = append(out, io.MultiReader(bytes.NewReader(data[:k]), bytes.NewReader(data[k:])))
	}
	return out
}

// serveScript runs a fresh server's connection loop over the bytes r
// delivers and returns what it wrote and in how many Writes.
func serveScript(model *gbdt.Model, r io.Reader) ([]byte, int) {
	s := New(model, 1)
	s.Logf = func(string, ...interface{}) {}
	sc := &scriptConn{r: r}
	s.serveConn(sc, &connState{br: newConnReader(sc)})
	return sc.w.Bytes(), sc.writes
}

// countFrames returns the number of whole frames in b.
func countFrames(b []byte) int {
	var buf []byte
	n := 0
	for r := bytes.NewReader(b); ; n++ {
		if _, err := readFrame(r, &buf, math.MaxUint32); err != nil {
			return n
		}
	}
}

// FuzzFrameDecode feeds arbitrary bytes through the one frame codec and
// the server's dispatch. Nothing may panic; the reader may not allocate
// anywhere near a lying length word's claim (it grows its buffer only as
// bytes arrive); an admit body that decodes holds exactly its rows × 40
// bytes; every frame that decodes re-encodes to its own bytes bit for
// bit; and the server's reply to it is one well-formed frame under the
// request's tag, an error for any request but an admit batch or a model
// push. The server's connection loop, fed the bytes whole, one at a time
// and in two pieces cut at every boundary, writes the same replies each
// time: in at most two Writes (the replies, then a goodbye) when they
// arrive in one read, and in one Write per reply when they arrive a byte
// at a time.
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
		checkStream(t, model, data)
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

// checkStream serves data through the connection loop in every delivery
// and compares each run's replies with the run that got data in one read.
func checkStream(t *testing.T, model *gbdt.Model, data []byte) {
	t.Helper()
	whole, writes := serveScript(model, bytes.NewReader(data))
	if len(data) <= connBufBytes && writes > 2 {
		t.Fatalf("%d bytes in one read answered in %d Writes, want at most 2", len(data), writes)
	}
	for i, r := range splitDeliveries(data) {
		got, writes := serveScript(model, r)
		if !bytes.Equal(got, whole) {
			t.Fatalf("delivery %d wrote other replies:\n%x\n%x", i, got, whole)
		}
		if i == 0 && writes != countFrames(whole) {
			t.Fatalf("a byte at a time: %d Writes for %d replies", writes, countFrames(whole))
		}
	}
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
		// Reply streams the split deliveries cut at every byte boundary:
		// a pipeline window's replies as one coalesced Write, and a reply
		// with half the next.
		{"seed-mux-window", appendProbs(appendRaw(appendProbs(appendProbs(nil, 1, []float64{0.5}), 2, nil), opError, 3, []byte("no")), 4, []float64{0.25, 0.75})},
		{"seed-mux-reply-and-half", append(appendProbs(nil, 5, []float64{0.5}), appendProbs(nil, 6, []float64{0.1, 0.2})[:15]...)},
	}
}

// FuzzMuxFrameDecode feeds arbitrary bytes to a MuxConn as its peer's
// reply stream, the client end of the codec FuzzFrameDecode drives from
// the server end. Nothing may panic; the reply buffer may not grow near a
// lying length word's claim; ReadResponse returns, frame after frame, what
// readFrame reads from the same bytes — an accepted reply re-encodes to
// its own bytes bit for bit, an opError surfaces its message as a remote
// error, a body that is not whole probabilities or any other opcode is
// refused under the reply's tag — whether the bytes arrive whole, one at
// a time or in two pieces cut at every boundary; and Rollout succeeds
// exactly when the first frame is an empty opModel ack of the pushed
// version.
func FuzzMuxFrameDecode(f *testing.F) {
	for _, s := range muxFuzzSeeds() {
		f.Add(s.data)
	}
	model := &gbdt.Model{Dim: features.Dim, BaseScore: 1}
	if err := model.Compile(); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplies(t, data, bytes.NewReader(data))
		for _, r := range splitDeliveries(data) {
			checkReplies(t, data, r)
		}

		var buf []byte
		err := NewMuxConn(&scriptConn{r: bytes.NewReader(data)}).Rollout(muxFuzzVersion, model)
		first, ferr := readFrame(bytes.NewReader(data), &buf, maxFramePayload)
		acked := ferr == nil && first.op == opModel && len(first.body) == 0 && first.tag == muxFuzzVersion
		if acked != (err == nil) {
			t.Fatalf("rollout of version %d: err %v against a first reply op %#x tag %d (%d-byte body, read err %v)",
				muxFuzzVersion, err, first.op, first.tag, len(first.body), ferr)
		}
	})
}

// checkReplies reads data, delivered by r, as a MuxConn's reply stream and
// checks each reply against readFrame over the same bytes.
func checkReplies(t *testing.T, data []byte, r io.Reader) {
	t.Helper()
	mc := NewMuxConn(&scriptConn{r: r})
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
