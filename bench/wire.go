package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"lfo/internal/core"
	"lfo/internal/evict"
	"lfo/internal/features"
	"lfo/internal/fleet"
	"lfo/internal/gbdt"
	"lfo/internal/gen"
	"lfo/internal/obs"
	"lfo/internal/opt"
	"lfo/internal/server"
	"lfo/internal/trace"
)

// Shape of the wire workload at scale 1.
const (
	wireShards    = 2
	wireBatch     = 64
	wireInFlight  = 4
	wireBurst     = wireBatch * wireInFlight // rows per Enqueue…Flush unit
	wireSegRows   = 25000                    // rows between two rollouts
	wireSegments  = 4                        // segments of a pass, a rollout between each two
	wireTrainRows = 2000                     // rows each of the two models trains on
	wireSyncOps   = 4000                     // single-row Client.Admit round trips
	wireCacheSize = 64 << 20
	// wireTrackerBound is server.Server's default per-connection tracker
	// bound; the local replays use the same.
	wireTrackerBound = 1 << 22
	// wirePassS is what one pass costs on the reference box; it turns
	// --seconds into a pass count.
	wirePassS = 0.55
)

// probAdmitter feeds a harness-side cache the probability for the row it is
// about to see (admit at 0.5, as the cache under test does) and remembers
// the free bytes the cache reported: that is the Free of the next burst's
// rows, and the free-bytes feature of the layer replays.
type probAdmitter struct {
	p    float64
	free int64
}

func (a *probAdmitter) Admit(_ trace.Request, free int64) (bool, float64) {
	a.free = free
	return a.p >= 0.5, a.p
}

func (a *probAdmitter) Observe(trace.Request) {}

// countConn counts the bytes of one router connection.
type countConn struct {
	net.Conn
	tx, rx *atomic.Int64
}

func (c countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.tx.Add(int64(n))
	return n, err
}

func (c countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.rx.Add(int64(n))
	return n, err
}

// wireRun is what a wire pass leaves behind for the traced replays.
type wireRun struct {
	tr       *trace.Trace
	rows     []server.AdmitRequest
	probs    []float64
	models   [2]*gbdt.Model
	genS     float64
	trainS   float64
	rollAt   []int     // row index before which each rollout happened
	enqueues []float64 // traced pass: seconds per burst inside the Enqueue loop
	flushes  []float64 // traced pass: seconds per burst inside Flush
	tx, rx   atomic.Int64
	rollTx   int64 // bytes written during Rollout calls
	start    time.Time
	measured time.Time
	segEnds  []time.Time // end of each segment's last burst
	rollEnds []time.Time
	end      time.Time
	cache    *evict.Cache
}

func admitRow(r trace.Request, free int64) server.AdmitRequest {
	return server.AdmitRequest{Time: r.Time, ID: uint64(r.ID), Size: r.Size, Cost: r.Cost, Free: free}
}

// wirePass drives wireSegments·segRows generated rows through two in-process
// server shards behind one fleet.Router, rolls a model out between
// segments, then makes syncOps single-row round trips with server.Client.
// Everything it starts is closed before it returns, on every path. With
// verify it checks every probability against a local replay; the checksum
// covers every probability, so a pass whose checksum equals a verified
// pass's needs no replay of its own.
func wirePass(segRows, trainRows, syncOps int, seed int64, reg *obs.Registry, run *wireRun, verify bool) (p pass, addrs []string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	traced := reg != nil
	run.start = time.Now()
	tr, err := input(gen.CDNMix, wireSegments*segRows, seed)
	if err != nil {
		return p, nil, err
	}
	run.tr = tr
	run.genS = time.Since(run.start).Seconds()
	trainStart := time.Now()
	for i := range run.models {
		cfg := core.Config{CacheSize: wireCacheSize, Workers: 1}
		cfg.OPT.Algorithm = opt.AlgoGreedy
		m, _, terr := core.TrainOnWindow(tr.Slice(i*trainRows, (i+1)*trainRows), cfg)
		if terr != nil {
			return p, nil, fmt.Errorf("train model %d: %w", i, terr)
		}
		run.models[i] = m
	}
	run.trainS = time.Since(trainStart).Seconds()

	servers := make([]*server.Server, wireShards)
	defer func() {
		for _, s := range servers {
			if s != nil {
				_ = s.Close() // listener already closed is the only error
			}
		}
	}()
	for i := range servers {
		servers[i] = server.New(run.models[0], 1)
		addr, lerr := servers[i].Listen("127.0.0.1:0")
		if lerr != nil {
			return p, nil, lerr
		}
		addrs = append(addrs, addr.String())
	}
	fcfg := fleet.Config{Addrs: addrs, Batch: wireBatch, MaxInFlight: wireInFlight, Obs: reg}
	if traced {
		fcfg.Dial = func(addr string) (net.Conn, error) {
			c, derr := net.Dial("tcp", addr)
			if derr != nil {
				return nil, derr
			}
			return countConn{c, &run.tx, &run.rx}, nil
		}
	}
	router, err := fleet.NewRouter(fcfg)
	if err != nil {
		return p, addrs, err
	}
	defer func() { _ = router.Close() }() // Close never fails
	adm := &probAdmitter{free: wireCacheSize}
	cache, err := evict.New(evict.Config{CacheSize: wireCacheSize, Admitter: adm, Eviction: "lru"})
	if err != nil {
		return p, addrs, err
	}
	run.cache = cache

	n := tr.Len()
	run.rows = make([]server.AdmitRequest, n)
	run.probs = make([]float64, n)
	// burst sends rows [lo,hi) and returns when every probability is in.
	burst := func(lo, hi int) (enq, total time.Duration) {
		free := adm.free
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			run.rows[i] = admitRow(tr.Requests[i], free)
			router.Enqueue(run.rows[i], &run.probs[i])
		}
		var t1 time.Time
		if traced {
			t1 = time.Now()
		}
		router.Flush()
		t2 := time.Now()
		if traced {
			enq = t1.Sub(t0)
		}
		return enq, t2.Sub(t0)
	}
	// apply replays the burst's decisions into the harness-side cache.
	apply := func(lo, hi int, count bool) {
		for i := lo; i < hi; i++ {
			r := tr.Requests[i]
			adm.p = run.probs[i]
			hit := cache.Request(r)
			if !count {
				continue
			}
			p.checksum = p.checksum*1099511628211 ^ math.Float64bits(adm.p)
			p.reqs++
			p.bytes += r.Size
			if hit {
				p.hits++
				p.hitBytes += r.Size
				p.checksum ^= 1
			}
		}
	}
	burst(0, wireBurst) // warm-up: connections, buffers and trackers exist after it
	apply(0, wireBurst, false)
	runtime.GC() // the measured phase starts without set-up's garbage
	p.setupS = time.Since(run.start).Seconds()

	alloc0 := totalAlloc()
	run.measured = time.Now()
	seg := 0
	version := uint64(0)
	for lo := wireBurst; lo < n; lo += wireBurst {
		hi := lo + wireBurst
		if hi > n {
			hi = n
		}
		enq, d := burst(lo, hi)
		p.units = append(p.units, d.Seconds())
		p.serveOps += int64(hi - lo)
		if traced {
			run.enqueues = append(run.enqueues, enq.Seconds())
			run.flushes = append(run.flushes, (d - enq).Seconds())
		}
		apply(lo, hi, true)
		if hi/segRows > seg && hi < n {
			// Segment boundary: roll the other model out to every shard
			// while the connections stay in use (writes beside reads).
			seg = hi / segRows
			version++
			run.rollAt = append(run.rollAt, hi)
			run.segEnds = append(run.segEnds, time.Now())
			tx0 := run.tx.Load()
			t0 := time.Now()
			if rerr := router.Rollout(version, run.models[version%2]); rerr != nil {
				return p, addrs, fmt.Errorf("rollout %d: %w", version, rerr)
			}
			p.handoffs = append(p.handoffs, time.Since(t0).Seconds())
			run.rollTx += run.tx.Load() - tx0
			run.rollEnds = append(run.rollEnds, time.Now())
			for i := 0; i < wireShards; i++ {
				if !router.ShardUp(i) {
					return p, addrs, fmt.Errorf("shard %d failed during rollout %d", i, version)
				}
			}
		}
	}
	run.segEnds = append(run.segEnds, time.Now())

	// The same server layer used one row per round trip.
	client, err := server.Dial(addrs[0])
	if err != nil {
		return p, addrs, err
	}
	defer func() { _ = client.Close() }() // nothing to flush
	syncProbs := make([]float64, syncOps)
	p.extra = make([]float64, syncOps)
	one := make([]server.AdmitRequest, 1)
	for i := 0; i < syncOps; i++ {
		one[0] = admitRow(tr.Requests[i], 0)
		t0 := time.Now()
		probs, aerr := client.Admit(one)
		p.extra[i] = time.Since(t0).Seconds()
		if aerr != nil || len(probs) != 1 {
			return p, addrs, fmt.Errorf("sync admit %d: %v (%d probabilities)", i, aerr, len(probs))
		}
		syncProbs[i] = probs[0]
	}
	run.end = time.Now()
	p.alloc = totalAlloc() - alloc0
	p.allOps = p.serveOps + int64(syncOps)

	for _, got := range syncProbs {
		p.checksum = p.checksum*1099511628211 ^ math.Float64bits(got)
	}
	if !verify {
		return p, addrs, nil
	}

	// Check every probability against a local replay of what each shard
	// connection saw: its own tracker and the model deployed at the time.
	var trackers [wireShards]*features.Tracker
	for i := range trackers {
		trackers[i] = features.NewTracker(wireTrackerBound)
	}
	buf := make([]float64, features.Dim)
	bad := 0
	check := func(t *features.Tracker, m *gbdt.Model, q server.AdmitRequest, got float64) {
		r := trace.Request{Time: q.Time, ID: trace.ObjectID(q.ID), Size: q.Size, Cost: q.Cost}
		t.Features(r, q.Free, buf)
		t.Update(r)
		if want := m.Predict(buf); math.Float64bits(want) != math.Float64bits(got) {
			bad++
		}
	}
	served := 0 // rollouts that happened before row i
	for i, q := range run.rows {
		if served < len(run.rollAt) && i == run.rollAt[served] {
			served++
		}
		check(trackers[router.HomeShard(q.ID)], run.models[served%2], q, run.probs[i])
	}
	syncTracker := features.NewTracker(wireTrackerBound)
	for i, got := range syncProbs {
		check(syncTracker, run.models[version%2], admitRow(tr.Requests[i], 0), got)
	}
	if bad > 0 {
		return p, addrs, fmt.Errorf("%d fleet probabilities differ from the local tracker+model replay", bad)
	}
	return p, addrs, nil
}

// runWire runs the wire workload: K untraced passes, then, when tracing,
// one pass with counters and byte counting attached and the layer replays.
func runWire(o options) (*result, error) {
	segRows := int(wireSegRows * o.scale)
	trainRows := int(wireTrainRows * o.scale)
	syncOps := int(wireSyncOps * o.scale)
	passes := o.passCount(wirePassS)
	res := &result{Workload: "wire_fleet", Seed: o.seed, Passes: passes}

	// onePass also checks that nothing the pass started is still listening.
	onePass := func(reg *obs.Registry, run *wireRun, verify bool) (pass, error) {
		p, addrs, err := wirePass(segRows, trainRows, syncOps, o.seed, reg, run, verify)
		for _, addr := range addrs {
			if c, derr := net.DialTimeout("tcp", addr, time.Second); derr == nil {
				_ = c.Close() // only probing
				res.fail("shard %s still accepts connections after Close", addr)
			}
		}
		return p, err
	}
	ps := make([]pass, 0, passes)
	var last *wireRun
	for k := 0; k < passes; k++ {
		last = new(wireRun)                  // only the newest pass's cache and rows stay live
		p, err := onePass(nil, last, k == 0) // checkPasses ties the others to pass 0
		if err != nil {
			return nil, fmt.Errorf("wire_fleet pass %d: %w", k, err)
		}
		res.Attempted += int64(last.tr.Len()+syncOps) + int64(len(p.handoffs))
		ps = append(ps, p)
	}
	heap := liveHeapMB()
	runtime.KeepAlive(last) // cache, rows and trace count as live
	res.checkPasses(ps)
	res.Samples = len(ps[0].units)
	var err error
	if res.EndToEnd, err = endToEnd(ps, heap); err != nil {
		return nil, err
	}
	if o.trace {
		reg := obs.NewRegistry()
		last = new(wireRun)
		tp, err := onePass(reg, last, false) // traceWire ties it to pass 0
		if err != nil {
			return nil, fmt.Errorf("wire_fleet traced pass: %w", err)
		}
		traceWire(res, ps, tp, last, reg, segRows)
	}
	return res, nil
}
