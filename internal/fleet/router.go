package fleet

import (
	"time"

	"lfo/internal/server"
	"lfo/internal/trace"
)

// Admit implements sim.Admitter: one row to the object's home shard and
// back, thresholded by Config.Cutoff. A row the shard fallback answered
// (shard down, failed or past its deadline) returns the fallback's own
// decision, so a degraded shard admits by second hit at any cutoff.
func (r *Router) Admit(req trace.Request, freeBytes int64) (bool, float64) {
	s := &r.shards[r.ring.Shard(uint64(req.ID))]
	before := s.fallbackRows
	r.Enqueue(server.AdmitRequest{Time: req.Time, ID: uint64(req.ID), Size: req.Size, Cost: req.Cost, Free: freeBytes}, &r.admitP)
	r.Flush()
	if s.fallbackRows != before {
		return s.fallbackAdmit, r.admitP
	}
	return r.admitP >= r.cutoff, r.admitP
}

// Observe implements sim.Admitter and does nothing: a shard tracks the
// rows it scores and the fallbacks observe every row at completion.
func (r *Router) Observe(trace.Request) {}

// arm gives the shard's connection a fresh I/O deadline, good for the
// next `writes` batches and the writes and reads that carry and complete
// them. One clock read and one SetDeadline per pipeline window, never per
// row: a batch queued into an empty pipeline arms, Flush re-arms before
// it waits on batches earlier calls left in flight, and Rollout and the
// reconnect push arm for themselves. A shard that accepts and then goes
// silent therefore blocks the caller for at most the timeout before its
// rows drain to the fallback; so does a caller that keeps one window open
// (Enqueue without Flush) for longer than the timeout.
func (r *Router) arm(s *shard, writes int) {
	//lfolint:ignore hotpath-alloc net.Conn is the wire boundary; there is no static callee to verify, and a failed arm surfaces on the I/O it was for
	_ = s.conn.SetDeadline(time.Now().Add(r.timeout))
	s.credit = writes
}

// Enqueue routes one admission row to its home shard and returns
// immediately; *dst receives the admission likelihood by the time Flush
// returns (the remote model's probability, or the shard fallback's 0/1
// likelihood when the shard is down or fails mid-batch). Enqueue never
// reports an error to the caller: shard failure degrades, it does not
// fail the cache.
//
//lfo:hotpath
func (r *Router) Enqueue(req server.AdmitRequest, dst *float64) {
	s := &r.shards[r.ring.Shard(req.ID)]
	if !s.up {
		//lfolint:ignore hotpath-alloc outage path behind a func value: fallback admission and reconnect probing run only while the shard is down
		r.enqueueDown(s, req, dst)
		return
	}
	base := ((s.flHead + s.flLen) % r.maxInFlight) * r.batch
	s.rows[base+s.pn] = req
	s.dsts[base+s.pn] = dst
	s.pn++
	if s.pn == r.batch {
		r.flushShard(s)
	}
}

// Flush sends every partial batch and completes every in-flight flight:
// when it returns, all destinations passed to Enqueue are filled — by the
// fallback for a shard that did not answer within the deadline (see arm).
// Every shard's queued batches are written before any reply is read, so
// the shards work on their windows at the same time.
//
//lfo:hotpath
func (r *Router) Flush() {
	for i := range r.shards {
		s := &r.shards[i]
		if s.flLen > 0 { // only a live shard has flights
			r.arm(s, r.maxInFlight) // earlier calls' batches wait under a deadline as old as the caller let it get
		}
		r.flushShard(s)
		r.send(s)
	}
	for i := range r.shards {
		s := &r.shards[i]
		for s.up && s.flLen > 0 {
			r.readOne(s)
		}
		s.credit = 0 // the pipeline is empty and the caller may idle before the next write
	}
}

// flushShard queues the open slot's pending rows as one pipelined batch;
// the queue goes out in one Write when a reply is first needed (readOne)
// or at Flush. When the pipeline window is full it completes the oldest
// flight, so there is always a free slot for new rows.
//
//lfo:hotpath
func (r *Router) flushShard(s *shard) {
	if s.pn == 0 || !s.up {
		return
	}
	slot := (s.flHead + s.flLen) % r.maxInFlight
	base := slot * r.batch
	id := r.nextID
	r.nextID++
	if s.credit == 0 {
		r.arm(s, r.maxInFlight)
	}
	s.credit--
	s.mc.QueueAdmitBatch(id, s.rows[base:base+s.pn])
	s.queued = true
	s.fl[slot] = flight{id: id, n: s.pn}
	s.flLen++
	s.pn = 0
	s.batches.Inc()
	if s.flLen == r.maxInFlight {
		r.readOne(s)
	}
}

// send writes the shard's queued batches in one Write. A failed Write
// fails the shard, whose flights — the ones just queued among them —
// drain to the fallback in enqueue order.
//
//lfo:hotpath
func (r *Router) send(s *shard) {
	if !s.queued {
		return
	}
	s.queued = false
	s.writes.Inc()
	if err := s.mc.Flush(); err != nil {
		//lfolint:ignore hotpath-alloc failure path behind a func value: runs once per shard failure, draining every queued row to the fallback
		r.onFail(s)
	}
}

// readOne completes the oldest in-flight batch, first writing any queued
// ones (its own among them), and then every later one whose reply the
// connection already holds, which takes no read: a caller that streams
// Enqueue without Flush then finds the window empty, not one slot free,
// and its next window's batches go out in one Write.
//
//lfo:hotpath
func (r *Router) readOne(s *shard) {
	if r.send(s); !s.up {
		return
	}
	for r.complete(s) && s.flLen > 0 && s.mc.ReplyBuffered() {
	}
}

// complete reads the oldest in-flight batch's reply and reports whether the
// shard is still up: it validates the echoed tag and row count (any
// mismatch means the stream desynchronized and the shard is failed),
// copies probabilities to the callers' destinations, and only then
// observes the rows into the shard fallback — observing at completion
// rather than enqueue keeps a row from being "seen" by its own
// observation if it later drains to the fallback.
//
//lfo:hotpath
func (r *Router) complete(s *shard) bool {
	f := s.fl[s.flHead]
	id, probs, err := s.mc.ReadResponse()
	if err != nil || id != f.id || len(probs) != f.n {
		//lfolint:ignore hotpath-alloc failure path behind a func value: runs once per shard failure
		r.onFail(s)
		return false
	}
	base := s.flHead * r.batch
	for i := 0; i < f.n; i++ {
		*s.dsts[base+i] = probs[i]
	}
	for i := 0; i < f.n; i++ {
		q := &s.rows[base+i]
		//lfolint:ignore hotpath-alloc fallback heuristic behind an interface; the censor's generation rotation allocates at a bounded amortized rate
		s.fallback.Observe(trace.Request{Time: q.Time, ID: trace.ObjectID(q.ID), Size: q.Size, Cost: q.Cost})
	}
	s.served.Add(int64(f.n))
	s.flHead = (s.flHead + 1) % r.maxInFlight
	s.flLen--
	return true
}

// enqueueDownSlow handles a row whose home shard is down: every
// probeEvery-th such row triggers a reconnect attempt (count-based so
// recovery is deterministic under replay); until one succeeds the row is
// answered by the shard's fallback.
func (r *Router) enqueueDownSlow(s *shard, req server.AdmitRequest, dst *float64) {
	s.downRows++
	if s.downRows%r.probeEvery == 0 && r.reconnect(s) {
		r.Enqueue(req, dst) // shard is back up: route remotely
		return
	}
	r.fallbackRow(s, req, dst)
}

// fallbackRow answers one row from the shard's degraded-mode heuristic.
// Admit before Observe, so a row never sees its own observation.
func (r *Router) fallbackRow(s *shard, req server.AdmitRequest, dst *float64) {
	tr := trace.Request{Time: req.Time, ID: trace.ObjectID(req.ID), Size: req.Size, Cost: req.Cost}
	s.fallbackAdmit, *dst = s.fallback.Admit(tr, req.Free)
	s.fallbackRows++
	s.fallback.Observe(tr)
	s.fallbacks.Inc()
}

// failShard tears a shard down after a write, read or tag failure or
// an expired deadline: the failure is counted once, the connection
// closed, and every queued row — in-flight flights oldest first, then the
// open slot — drains to the fallback in enqueue order, so callers still
// get an answer for every row and replays reproduce the same decisions.
func (r *Router) failShard(s *shard) {
	if !s.up {
		return
	}
	s.failovers.Inc()
	s.disconnect()
	s.downRows = 0
	for k := 0; k < s.flLen; k++ {
		slot := (s.flHead + k) % r.maxInFlight
		base := slot * r.batch
		for i := 0; i < s.fl[slot].n; i++ {
			r.fallbackRow(s, s.rows[base+i], s.dsts[base+i])
		}
	}
	base := ((s.flHead + s.flLen) % r.maxInFlight) * r.batch
	for i := 0; i < s.pn; i++ {
		r.fallbackRow(s, s.rows[base+i], s.dsts[base+i])
	}
	s.flHead, s.flLen, s.pn = 0, 0, 0
}

// reconnect re-dials a down shard and, if the fleet has rolled a model
// since boot, pushes the current version before the shard rejoins the
// ring — a recovered shard never serves a stale model.
func (r *Router) reconnect(s *shard) bool {
	conn, err := r.dial(s.addr)
	if err != nil {
		return false
	}
	s.conn, s.mc = conn, server.NewMuxConn(conn)
	if r.version > 0 {
		r.arm(s, 0)
		if err := s.mc.Rollout(r.version, r.model); err != nil {
			s.disconnect()
			return false
		}
	}
	s.up = true
	s.downRows = 0
	return true
}

// disconnect closes the shard's connection, if any, and marks it down.
func (s *shard) disconnect() {
	if s.mc != nil {
		_ = s.mc.Close()
	}
	s.conn, s.mc, s.up, s.credit, s.queued = nil, nil, false, 0, false
}
