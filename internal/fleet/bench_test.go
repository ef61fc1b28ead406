package fleet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"lfo/internal/obs"
	"lfo/internal/server"
)

// stubConn is a synchronous in-memory shard: every admit frame written to
// it immediately queues the matching reply (echoed tag, 0.5 per row) for
// the next Read. It works because the Router is single-goroutine — a reply
// can never be needed before its request was written — and it keeps the
// enqueue/flush benchmark free of a real server's allocations, which would
// pollute the 0 allocs/op pin.
type stubConn struct {
	out  []byte
	head int

	// Scripting for the Admit tests; the zero value is the benchmark's
	// shard. probs are the answers, popped one per row (0.5 once they
	// run out); padRows extra rows make every reply the wrong shape;
	// down fails every Write; record keeps the last tuple written.
	probs   []float64
	padRows int
	down    bool
	record  bool
	last    server.AdmitRequest
	// writes counts Write calls; frames counts the admit frames in them.
	writes, frames int
}

// The wire layout, mirrored from internal/server, whose TestFrameGolden
// pins the same bytes: u32 len | u8 op | u64 tag | body, len counting
// everything after itself.
const (
	stubOpProbs = 1
	stubOpAdmit = 2
	stubHdr     = 4 + 1 + 8
)

// Write answers every frame in p, which must be whole admit frames (the
// router writes a pipeline window's queued batches in one Write); their
// bodies are 40-byte tuples. Anything else fails the Write, as would a
// real shard's desynchronized stream.
func (c *stubConn) Write(p []byte) (int, error) {
	if c.down {
		return 0, fmt.Errorf("stub: shard is down")
	}
	c.writes++
	for rest := p; len(rest) > 0; {
		if len(rest) < stubHdr || rest[4] != stubOpAdmit || 4+int(binary.LittleEndian.Uint32(rest)) > len(rest) {
			return 0, fmt.Errorf("stub: unexpected frame")
		}
		n := 4 + int(binary.LittleEndian.Uint32(rest))
		c.answer(rest[:n])
		rest = rest[n:]
	}
	return len(p), nil
}

// answer queues the reply to one admit frame.
func (c *stubConn) answer(p []byte) {
	c.frames++
	tag := binary.LittleEndian.Uint64(p[5:])
	n := (len(p) - stubHdr) / 40
	if c.record && n > 0 {
		row := p[len(p)-40:]
		c.last = server.AdmitRequest{
			Time: int64(binary.LittleEndian.Uint64(row)),
			ID:   binary.LittleEndian.Uint64(row[8:]),
			Size: int64(binary.LittleEndian.Uint64(row[16:])),
			Cost: math.Float64frombits(binary.LittleEndian.Uint64(row[24:])),
			Free: int64(binary.LittleEndian.Uint64(row[32:])),
		}
	}
	n += c.padRows
	if c.head > 0 {
		// Compact: with a pipeline window the buffer never fully
		// drains, so shift the unread tail down instead of growing.
		rest := copy(c.out, c.out[c.head:])
		c.out = c.out[:rest]
		c.head = 0
	}
	start := len(c.out)
	if end := start + stubHdr + 8*n; end <= cap(c.out) {
		c.out = c.out[:end] // every byte up to end is written below
	} else {
		c.out = append(c.out, make([]byte, stubHdr+8*n)...)
	}
	b := c.out[start:]
	binary.LittleEndian.PutUint32(b, uint32(stubHdr-4+8*n))
	b[4] = stubOpProbs
	binary.LittleEndian.PutUint64(b[5:], tag)
	for i := 0; i < n; i++ {
		prob := 0.5
		if len(c.probs) > 0 {
			prob, c.probs = c.probs[0], c.probs[1:]
		}
		binary.LittleEndian.PutUint64(b[stubHdr+8*i:], math.Float64bits(prob))
	}
}

func (c *stubConn) Read(p []byte) (int, error) {
	if c.head == len(c.out) {
		return 0, io.EOF // the router never reads more than it wrote
	}
	n := copy(p, c.out[c.head:])
	c.head += n
	return n, nil
}

func (c *stubConn) Close() error                     { return nil }
func (c *stubConn) LocalAddr() net.Addr              { return nil }
func (c *stubConn) RemoteAddr() net.Addr             { return nil }
func (c *stubConn) SetDeadline(time.Time) error      { return nil }
func (c *stubConn) SetReadDeadline(time.Time) error  { return nil }
func (c *stubConn) SetWriteDeadline(time.Time) error { return nil }

// BenchmarkRouterEnqueueFlush pins the admission hot path — ring lookup,
// slab write, batch framing, corked window write, buffered read, fan-back,
// censor observe — at 0 allocs/op in steady state
// (testdata/alloc_budgets.txt). Object IDs recycle within a bounded set so
// the censor's generations stop growing after warmup, exactly like a
// production stream with repeats. It fails unless the stub served every
// row: a shard failed over to its fallback would be timed instead.
func BenchmarkRouterEnqueueFlush(b *testing.B) {
	reg := obs.NewRegistry()
	r, err := NewRouter(Config{
		Addrs: []string{"stub"},
		Batch: 64, MaxInFlight: 4,
		Dial: func(string) (net.Conn, error) { return &stubConn{}, nil },
		Obs:  reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()

	var dst [64]float64
	req := server.AdmitRequest{Size: 1000, Cost: 1, Free: 1 << 30}
	for i := 0; i < 8192; i++ { // warm slabs, buffers, censor generations
		req.ID = uint64(i % 1024)
		req.Time = int64(i)
		r.Enqueue(req, &dst[i%64])
	}
	r.Flush()

	b.ReportAllocs()
	b.SetBytes(40) // one wire tuple per op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ID = uint64(i % 1024)
		req.Time = int64(i)
		r.Enqueue(req, &dst[i%64])
	}
	b.StopTimer()
	r.Flush()
	if fb := reg.Counter("fleet_shard0_fallback_rows_total").Value(); !r.ShardUp(0) || fb != 0 {
		b.Fatalf("shard 0 up %v, %d rows answered by the fallback: the benchmark timed the fallback path", r.ShardUp(0), fb)
	}
}
