package fleet

import (
	"net"
	"strings"
	"testing"

	"lfo/internal/obs"
	"lfo/internal/policy"
	"lfo/internal/server"
	"lfo/internal/trace"
)

// corkRow is the i-th row of the corking tests' streams; IDs repeat so a
// second-hit censor's answers depend on the order it sees them in.
func corkRow(i int) server.AdmitRequest {
	return server.AdmitRequest{Time: int64(i), ID: uint64(i*7%5 + 1), Size: 100, Cost: 1, Free: 1 << 20}
}

// TestCorkedWindowOneWrite: the batches of a full pipeline window to one
// shard go out in one Write, when the first reply is needed; a partial
// window goes out in one Write at Flush. writes_total counts them.
func TestCorkedWindowOneWrite(t *testing.T) {
	shard := &stubConn{}
	reg := obs.NewRegistry()
	r := stubRouter(t, Config{Obs: reg, Batch: 4, MaxInFlight: 4}, shard)
	var dst [16]float64
	for i := 0; i < 15; i++ {
		r.Enqueue(corkRow(i), &dst[i])
	}
	if shard.writes != 0 {
		t.Fatalf("%d Writes before the window filled, want 0", shard.writes)
	}
	r.Enqueue(corkRow(15), &dst[15])
	if shard.writes != 1 || shard.frames != 4 {
		t.Fatalf("full window: %d Writes carrying %d frames, want 1 carrying 4", shard.writes, shard.frames)
	}
	r.Flush()
	if shard.writes != 1 {
		t.Errorf("Flush of a written window made %d Writes in all, want 1", shard.writes)
	}

	for i := 0; i < 9; i++ { // two batches and a partial third
		r.Enqueue(corkRow(16+i), &dst[i])
	}
	r.Flush()
	if shard.writes != 2 || shard.frames != 7 {
		t.Errorf("partial window: %d Writes carrying %d frames in all, want 2 carrying 7", shard.writes, shard.frames)
	}
	for name, want := range map[string]int64{"writes_total": 2, "batches_total": 7, "rows_total": 25, "fallback_rows_total": 0} {
		if got := counterValue(t, reg, "fleet_shard0_"+name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestCorkedWriteFailureDrainsInOrder: when the one Write of a window
// fails, every flight of the window — written in that Write or not — and
// the open slot go to the fallback in enqueue order, so its censor answers
// as it would have row by row.
func TestCorkedWriteFailureDrainsInOrder(t *testing.T) {
	shard := &stubConn{}
	reg := obs.NewRegistry()
	r := stubRouter(t, Config{Obs: reg, Batch: 2, MaxInFlight: 4, ProbeEvery: 1 << 30}, shard)
	const rows = 7 // three batches queued, one row pending
	var dst [rows]float64
	for i := 0; i < rows; i++ {
		dst[i] = -1
		r.Enqueue(corkRow(i), &dst[i])
	}
	shard.down = true
	r.Flush()

	censor := policy.NewSecondHitCensor(0)
	for i := 0; i < rows; i++ {
		q := corkRow(i)
		tr := trace.Request{Time: q.Time, ID: trace.ObjectID(q.ID), Size: q.Size, Cost: q.Cost}
		_, want := censor.Admit(tr, q.Free)
		censor.Observe(tr)
		if dst[i] != want {
			t.Errorf("row %d: %v, want the in-order censor's %v", i, dst[i], want)
		}
	}
	if r.ShardUp(0) {
		t.Error("shard up after its Write failed")
	}
	for name, want := range map[string]int64{"failovers_total": 1, "fallback_rows_total": rows, "rows_total": 0, "writes_total": 1} {
		if got := counterValue(t, reg, "fleet_shard0_"+name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// orderConn is a stub shard that logs its Writes and Reads, in the order
// the Router makes them, into a log the test's shards share.
type orderConn struct {
	stubConn
	name string
	log  *[]string
}

func (c *orderConn) Write(p []byte) (int, error) {
	*c.log = append(*c.log, c.name+" write")
	return c.stubConn.Write(p)
}

func (c *orderConn) Read(p []byte) (int, error) {
	*c.log = append(*c.log, c.name+" read")
	return c.stubConn.Read(p)
}

// TestCorkFlushWritesEveryShardFirst: Flush writes every shard's window before
// it reads any reply, so the shards work on them at the same time; each
// window is one Write and its replies one Read.
func TestCorkFlushWritesEveryShardFirst(t *testing.T) {
	var log []string
	conns := map[string]*orderConn{}
	r, err := NewRouter(Config{
		Addrs: []string{"a", "b"}, Batch: 2, MaxInFlight: 4,
		Dial: func(addr string) (net.Conn, error) {
			c := &orderConn{name: addr, log: &log}
			conns[addr] = c
			return c, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Three batches for each shard: neither window fills before Flush.
	var dst [12]float64
	var per [2]int
	for id, i := uint64(1), 0; i < len(dst); id++ {
		if sh := r.HomeShard(id); per[sh] < len(dst)/2 {
			per[sh]++
			r.Enqueue(server.AdmitRequest{Time: int64(i), ID: id, Size: 100, Cost: 1}, &dst[i])
			i++
		}
	}
	r.Flush()
	want := "a write, b write, a read, b read"
	if got := strings.Join(log, ", "); got != want {
		t.Errorf("Flush made %s; want %s", got, want)
	}
	for name, c := range conns {
		if c.writes != 1 || c.frames != 3 {
			t.Errorf("shard %s: %d Writes carrying %d frames, want 1 carrying 3", name, c.writes, c.frames)
		}
	}
}

// TestCorkStreamingWindows: a caller that streams Enqueue without Flush
// still sends a pipeline window's batches in one Write. The Write that
// fills the window brings back every reply at once, and the read that
// completes the oldest completes the rest from the buffer, so the next
// window starts empty. Row by row, the answers are the shard's, and the
// fallback observes the rows in enqueue order.
func TestCorkStreamingWindows(t *testing.T) {
	const rows = 64
	row := func(i int) server.AdmitRequest {
		return server.AdmitRequest{Time: int64(i), ID: uint64(i*7%41 + 1), Size: 100, Cost: 1, Free: 1 << 20}
	}
	probs := make([]float64, rows)
	for i := range probs {
		probs[i] = float64(i) / rows
	}
	shard := &stubConn{probs: append([]float64(nil), probs...)}
	reg := obs.NewRegistry()
	r := stubRouter(t, Config{Obs: reg, Batch: 4, MaxInFlight: 4, ProbeEvery: 1 << 30}, shard)
	var dst [rows]float64
	for i := 0; i < rows; i++ {
		r.Enqueue(row(i), &dst[i])
	}
	r.Flush()
	if shard.writes > 5 || shard.frames != rows/4 {
		t.Errorf("%d rows streamed: %d Writes carrying %d frames, want at most 5 carrying %d", rows, shard.writes, shard.frames, rows/4)
	}
	for i, want := range probs {
		if dst[i] != want {
			t.Fatalf("row %d: %v, want the shard's %v", i, dst[i], want)
		}
	}

	// The shard goes down: the fallback answers the next rows from what it
	// observed, which must be the stream in order.
	shard.down = true
	const tail = 12
	var late [tail]float64
	for i := 0; i < tail; i++ {
		r.Enqueue(row(rows+i), &late[i])
	}
	r.Flush()
	censor := policy.NewSecondHitCensor(0)
	for i := 0; i < rows+tail; i++ {
		q := row(i)
		tr := trace.Request{Time: q.Time, ID: trace.ObjectID(q.ID), Size: q.Size, Cost: q.Cost}
		if i >= rows {
			if _, want := censor.Admit(tr, q.Free); late[i-rows] != want {
				t.Errorf("row %d: fallback %v, want the in-order censor's %v", i, late[i-rows], want)
			}
		}
		censor.Observe(tr)
	}
	if got := counterValue(t, reg, "fleet_shard0_fallback_rows_total"); got != tail {
		t.Errorf("fallback_rows_total = %d, want %d", got, tail)
	}
}
