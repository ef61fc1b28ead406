package main

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"lfo/internal/evict"
	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/obs"
	"lfo/internal/opt"
	"lfo/internal/server"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// layerMetrics names every per-layer metric, in BENCHMARK.json order. A
// traced run reports all of them; a layer the workload does not exercise
// reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"features.row_ns", "ns"},
	{"features.update_ns", "ns"},
	{"features.alloc_bytes_per_op", "B"},
	{"features.tracked_objects", "count"},
	{"gbdt.predict_ns", "ns"},
	{"gbdt.predict_matrix_ns_per_row", "ns"},
	{"gbdt.train_s", "s"},
	{"gbdt.train_alloc_mb", "MB"},
	{"gbdt.trees", "count"},
	{"gbdt.leaves", "count"},
	{"gbdt.model_bytes", "B"},
	{"evict.victim_ns", "ns"},
	{"evict.picks_per_op", "1/op"},
	{"evict.model_rows_per_op", "1/op"},
	{"evict.train_s", "s"},
	{"opt.compute_s", "s"},
	{"opt.ns_per_interval", "ns"},
	{"opt.flow_intervals", "count"},
	{"opt.greedy_intervals", "count"},
	{"opt.segments", "count"},
	{"core.serve_ns", "ns"},
	{"core.glue_ns", "ns"},
	{"core.glue_share", "share"},
	{"core.block_p50_us", "us"},
	{"core.block_p99_us", "us"},
	{"core.block_p999_us", "us"},
	{"core.handoff_other_s", "s"},
	{"core.learn_us_per_op", "us"},
	{"core.gbit_per_core", "Gbit/s"},
	{"server.encode_ns_per_row", "ns"},
	{"server.kernel_ns_per_row", "ns"},
	{"server.sync_rtt_us", "us"},
	{"server.tx_bytes_per_row", "B"},
	{"server.rx_bytes_per_row", "B"},
	{"server.rollout_bytes", "B"},
	{"fleet.enqueue_ns_per_row", "ns"},
	{"fleet.flush_wait_us", "us"},
	{"fleet.rows_per_batch", "count"},
	{"fleet.shard_imbalance", "share"},
	{"fleet.fallback_rows", "count"},
	{"fleet.rollout_ms", "ms"},
	{"fleet.burst_p50_us", "us"},
	{"fleet.burst_p99_us", "us"},
	{"gen.generate_s", "s"},
	{"trace.mean_object_bytes", "B"},
	{"bench.trace_overhead_share", "share"},
}

// setLayers fills r.PerLayer from the measured values.
func (r *result) setLayers(v map[string]float64) {
	for name := range v {
		known := false
		for _, m := range layerMetrics {
			known = known || m.name == name
		}
		if !known {
			r.fail("layer metric %s is not declared", name)
		}
	}
	r.PerLayer = r.PerLayer[:0]
	for _, m := range layerMetrics {
		r.PerLayer = append(r.PerLayer, metric{Name: m.name, Value: v[m.name], Unit: m.unit})
	}
}

// sink keeps the replay loops' results alive.
var sink float64

func meanObjectBytes(tr *trace.Trace) float64 {
	total := int64(0)
	for _, r := range tr.Requests {
		total += r.Size
	}
	return float64(total) / float64(tr.Len())
}

// unitPercentile is the q-quantile of a unit of service in the pass where
// it was lowest, in microseconds. Each pass's quantile is taken over that
// pass's own units, so, unlike the end-to-end p90, it is a value a pass
// measured, pauses included.
func unitPercentile(passes []pass, q float64) float64 {
	return minOf(perPass(passes, func(p *pass) float64 { return percentile(p.units, q) * 1e6 }))
}

// overhead is the traced pass's serve time over the fastest untraced
// pass's, minus one.
func overhead(untraced []pass, traced pass) float64 {
	sums := make([]float64, len(untraced))
	for i := range untraced {
		sums[i] = sum(untraced[i].units)
	}
	return sum(traced.units)/minOf(sums) - 1
}

// traceCache makes one more pass of the real cache with an obs.Registry
// attached, then replays each layer alone through its public functions,
// window by window, timing whole loops. It records one span per layer per
// window and fills the per-layer metrics.
func traceCache(res *result, s cacheSpec, window, windows int, seed int64, untraced []pass) error {
	reg := obs.NewRegistry()
	tp, run, err := cachePass(s, window, windows, seed, reg)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	res.Attempted += int64(run.tr.Len())
	if tp.checksum != untraced[0].checksum {
		res.fail("traced pass decided differently: checksum %x vs %x", tp.checksum, untraced[0].checksum)
	}
	v := map[string]float64{
		"gen.generate_s":             run.genS,
		"trace.mean_object_bytes":    meanObjectBytes(run.tr),
		"bench.trace_overhead_share": overhead(untraced, tp),
	}
	log := &spanLog{epoch: run.start, pass: len(untraced)}
	root := log.add(0, "pass", 0, run.start, run.end)
	w0 := log.add(root, "window", 0, run.bounds[0], run.bounds[1])
	log.add(w0, "setup", 0, run.bounds[0], run.bounds[1])

	cfg := s.config(window, nil)
	optCfg := cfg.OPT
	optCfg.CacheSize, optCfg.Workers = s.cacheSize, 1
	params := gbdt.DefaultParams()
	params.Workers = 1
	learned := s.eviction == "learned"

	// Counts of the traced pass: victim picks the models ranked.
	picks := reg.Counter("evict_candidate_sets_total").Value() - reg.Counter("evict_bootstrap_picks_total").Value()
	picksPerOp := float64(picks) / float64(tp.reqs)
	v["evict.picks_per_op"] = picksPerOp
	if sets := reg.Counter("evict_candidate_sets_total").Value(); sets > 0 {
		v["evict.model_rows_per_op"] = picksPerOp * float64(reg.Counter("evict_candidates_total").Value()) / float64(sets)
	}

	// The free-bytes feature of the replays comes from a reference LRU cache
	// that admits everything, as core.Extract's does.
	ref := &probAdmitter{p: 1, free: s.cacheSize}
	refCache, err := evict.New(evict.Config{CacheSize: s.cacheSize, Admitter: ref, Eviction: "lru"})
	if err != nil {
		return err
	}
	tracker, updOnly := features.NewTracker(0), features.NewTracker(0)
	rows := make([]float64, window*features.Dim)
	probs := make([]float64, window)
	free := make([]int64, window)
	var featS, updS, predS, matS float64
	var featN, predN int
	var featAlloc uint64
	var optS, trainS, evictTrainS, victimNS []float64
	var trainAlloc uint64
	var lastModel *gbdt.Model
	var lastOpt *opt.Result

	for w := 0; w <= windows; w++ {
		lo, hi := w*window, (w+1)*window
		if hi > run.tr.Len() {
			hi = run.tr.Len()
		}
		reqs := run.tr.Requests[lo:hi]
		n := len(reqs)
		for i, r := range reqs {
			free[i] = ref.free
			refCache.Request(r)
		}

		// Each cheap loop runs twice and the faster run counts; the first
		// features run works on a clone so the tracker advances once.
		clone := tracker.Clone()
		t0 := time.Now()
		for i, r := range reqs {
			clone.Features(r, free[i], rows[i*features.Dim:(i+1)*features.Dim])
			clone.Update(r)
		}
		dFeat := time.Since(t0)
		a0 := totalAlloc()
		t0 = time.Now()
		for i, r := range reqs {
			tracker.Features(r, free[i], rows[i*features.Dim:(i+1)*features.Dim])
			tracker.Update(r)
		}
		dFeat = minDur(dFeat, time.Since(t0))
		featAlloc += totalAlloc() - a0
		clone = updOnly.Clone()
		t0 = time.Now()
		for _, r := range reqs {
			clone.Update(r)
		}
		dUpd := time.Since(t0)
		t0 = time.Now()
		for _, r := range reqs {
			updOnly.Update(r)
		}
		dUpd = minDur(dUpd, time.Since(t0))
		featS += dFeat.Seconds()
		updS += dUpd.Seconds()
		featN += n
		if w == 0 {
			continue
		}

		end := run.end
		if w < windows {
			end = run.handoffStart[w-1]
		}
		ws := log.add(root, "window", w, run.bounds[w], boundAfter(run, w))
		serve := log.add(ws, "serve", w, run.bounds[w], end)
		log.addReplay(serve, "features", w, dFeat)

		model := run.models[w]
		var dPred, dMat time.Duration
		for rep := 0; rep < 2; rep++ {
			t0 = time.Now()
			for i := 0; i < n; i++ {
				sink += model.Predict(rows[i*features.Dim : (i+1)*features.Dim])
			}
			d := time.Since(t0)
			t0 = time.Now()
			model.PredictMatrix(rows[:n*features.Dim], probs[:n], 1)
			if dm := time.Since(t0); rep == 0 {
				dPred, dMat = d, dm
			} else {
				dPred, dMat = minDur(dPred, d), minDur(dMat, dm)
			}
		}
		matS += dMat.Seconds()
		predS += dPred.Seconds()
		predN += n
		log.addReplay(serve, "gbdt.predict", w, dPred)
		if w == windows {
			continue // the last window stops short of a handoff
		}

		handoff := log.add(ws, "handoff", w, run.handoffStart[w-1], run.bounds[w+1])
		t0 = time.Now()
		or, err := opt.Compute(&trace.Trace{Requests: reqs}, optCfg)
		if err != nil {
			return fmt.Errorf("opt replay of window %d: %w", w, err)
		}
		d := time.Since(t0)
		optS = append(optS, d.Seconds())
		log.addReplay(handoff, "opt", w, d)
		lastOpt = or

		labels := make([]float64, n)
		for i, admit := range or.Admit {
			if admit {
				labels[i] = 1
			}
		}
		a0 = totalAlloc()
		t0 = time.Now()
		m, err := gbdt.Train(gbdt.DatasetFromMatrix(features.Dim, rows[:n*features.Dim], labels), params)
		if err != nil {
			return fmt.Errorf("train replay of window %d: %w", w, err)
		}
		d = time.Since(t0)
		trainAlloc = totalAlloc() - a0
		trainS = append(trainS, d.Seconds())
		log.addReplay(handoff, "gbdt.train", w, d)
		lastModel = m

		if learned {
			t0 = time.Now()
			em, err := evict.Train(reqs, or.Admit, params)
			if err != nil {
				return fmt.Errorf("evict.Train replay of window %d: %w", w, err)
			}
			d = time.Since(t0)
			evictTrainS = append(evictTrainS, d.Seconds())
			log.addReplay(handoff, "evict.train", w, d)
			// The store is filled from the pass so far, as the cache's is.
			ns, err := victimPickNS(run.tr.Requests[:hi], s.cacheSize, em)
			if err != nil {
				return err
			}
			victimNS = append(victimNS, ns)
			log.addReplay(serve, "evict.victim", w, time.Duration(ns*picksPerOp*float64(n)))
		}
	}
	// What the handoff does besides labeling and training: gather,
	// labels, rescore, deploy.
	otherS := make([]float64, len(tp.handoffs))
	for i, h := range tp.handoffs {
		otherS[i] = h - run.stageS[i]
	}

	v["features.update_ns"] = updS / float64(featN) * 1e9
	v["features.row_ns"] = (featS - updS) / float64(featN) * 1e9
	v["features.alloc_bytes_per_op"] = float64(featAlloc) / float64(featN)
	v["features.tracked_objects"] = float64(tracker.Len())
	v["gbdt.predict_ns"] = predS / float64(predN) * 1e9
	v["gbdt.predict_matrix_ns_per_row"] = matS / float64(predN) * 1e9
	v["gbdt.train_s"] = median(trainS)
	v["gbdt.train_alloc_mb"] = float64(trainAlloc) / (1 << 20)
	var saved bytes.Buffer
	if err := lastModel.Save(&saved); err != nil {
		return fmt.Errorf("save model: %w", err)
	}
	v["gbdt.trees"] = float64(lastModel.NumTrees())
	v["gbdt.leaves"] = float64(lastModel.NumLeaves())
	v["gbdt.model_bytes"] = float64(saved.Len())
	v["evict.victim_ns"] = median(victimNS)
	v["evict.train_s"] = median(evictTrainS)
	v["opt.compute_s"] = median(optS)
	if solved := lastOpt.FlowIntervals + lastOpt.GreedyIntervals; solved > 0 {
		v["opt.ns_per_interval"] = optS[len(optS)-1] / float64(solved) * 1e9
	}
	v["opt.flow_intervals"] = float64(lastOpt.FlowIntervals)
	v["opt.greedy_intervals"] = float64(lastOpt.GreedyIntervals)
	v["opt.segments"] = float64(lastOpt.Segments)

	// Glue is what core adds around the layers on the request path: store,
	// pq, window recording, evict-on-hit.
	serveNS := sum(tp.units) / float64(tp.serveOps) * 1e9
	glue := serveNS - featS/float64(featN)*1e9 - v["gbdt.predict_ns"] - v["evict.victim_ns"]*picksPerOp
	v["core.serve_ns"] = serveNS
	v["core.glue_ns"] = glue
	v["core.glue_share"] = glue / serveNS
	v["core.block_p50_us"] = unitPercentile(untraced, 0.5)
	v["core.block_p99_us"] = unitPercentile(untraced, 0.99)
	v["core.block_p999_us"] = unitPercentile(untraced, 0.999)
	v["core.handoff_other_s"] = median(otherS)
	v["core.learn_us_per_op"] = res.endToEndValue("handoff_s") / float64(window) * 1e6
	v["core.gbit_per_core"] = res.endToEndValue("serve_per_s") * v["trace.mean_object_bytes"] * 8 / 1e9
	res.setLayers(v)
	res.Spans = log.spans
	return nil
}

// boundAfter is when window w ended: the start of window w+1, or the end
// of the pass for the last window.
func boundAfter(run cacheRun, w int) time.Time {
	if w+1 < len(run.bounds) {
		return run.bounds[w+1]
	}
	return run.end
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// victimPickNS times evict.Learned.Victim alone: a store filled from reqs,
// the window's own ranker deployed, and a loop of picks that removes
// nothing.
func victimPickNS(reqs []trace.Request, cacheSize int64, model *gbdt.Model) (float64, error) {
	store := sim.NewStore[evict.Meta](cacheSize)
	ev, err := evict.NewEvictor("learned", store, evict.Options{Seed: 1})
	if err != nil {
		return 0, err
	}
	for _, r := range reqs {
		if e := store.Get(r.ID); e != nil {
			ev.OnHit(e, r)
		} else if store.Fits(r.Size) {
			ev.OnAdmit(store.Add(r.ID, r.Size), r)
		}
	}
	ev.SetModel(model)
	now := reqs[len(reqs)-1].Time
	const picks = 4000
	t0 := time.Now()
	for i := 0; i < picks; i++ {
		sink += float64(ev.Victim(now))
	}
	return float64(time.Since(t0).Nanoseconds()) / picks, nil
}

// discardConn swallows writes; only Write is ever called on it.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// traceWire fills the per-layer metrics of the wire workload from the
// traced pass (counters, byte counts, Enqueue/Flush split) and from
// replays of the encoder and of the shards' kernel.
func traceWire(res *result, untraced []pass, tp pass, run *wireRun, reg *obs.Registry, segRows int) {
	res.Attempted += int64(run.tr.Len() + len(tp.extra) + len(tp.handoffs))
	if tp.checksum != untraced[0].checksum {
		res.fail("traced pass decided differently: checksum %x vs %x", tp.checksum, untraced[0].checksum)
	}
	rows := float64(tp.serveOps)
	v := map[string]float64{
		"gen.generate_s":             run.genS,
		"gbdt.train_s":               run.trainS / float64(len(run.models)),
		"trace.mean_object_bytes":    meanObjectBytes(run.tr),
		"bench.trace_overhead_share": overhead(untraced, tp),
		"fleet.enqueue_ns_per_row":   sum(run.enqueues) / rows * 1e9,
		"fleet.flush_wait_us":        median(run.flushes) * 1e6,
		"server.rollout_bytes":       float64(run.rollTx) / float64(len(tp.handoffs)),
		"server.tx_bytes_per_row":    float64(run.tx.Load()-run.rollTx) / float64(len(run.rows)),
		"server.rx_bytes_per_row":    float64(run.rx.Load()) / float64(len(run.rows)),
	}
	var saved bytes.Buffer
	if err := run.models[0].Save(&saved); err != nil {
		res.fail("save model: %v", err)
	}
	v["gbdt.trees"] = float64(run.models[0].NumTrees())
	v["gbdt.leaves"] = float64(run.models[0].NumLeaves())
	v["gbdt.model_bytes"] = float64(saved.Len())

	var served, batches, fallbacks, most float64
	for i := 0; i < wireShards; i++ {
		sreg := reg.Prefixed(fmt.Sprintf("fleet_shard%d_", i))
		n := float64(sreg.Counter("rows_total").Value())
		served += n
		if n > most {
			most = n
		}
		batches += float64(sreg.Counter("batches_total").Value())
		fallbacks += float64(sreg.Counter("fallback_rows_total").Value())
	}
	v["fleet.rows_per_batch"] = served / batches
	v["fleet.shard_imbalance"] = most/(served/wireShards) - 1
	v["fleet.fallback_rows"] = fallbacks
	if fallbacks > 0 {
		res.fail("%v rows were answered by the fallback heuristic", fallbacks)
	}

	v["fleet.burst_p50_us"] = unitPercentile(untraced, 0.5)
	v["fleet.burst_p99_us"] = unitPercentile(untraced, 0.99)
	v["fleet.rollout_ms"] = res.endToEndValue("handoff_s") * 1e3
	v["server.sync_rtt_us"] = minOf(perPass(untraced, func(p *pass) float64 { return median(p.extra) })) * 1e6

	// Encoder alone: the rows of the pass, one batch per frame, into a
	// connection that discards them.
	mc := server.NewMuxConn(discardConn{})
	t0 := time.Now()
	for lo := 0; lo+wireBatch <= len(run.rows); lo += wireBatch {
		if err := mc.WriteAdmitBatch(uint64(lo), run.rows[lo:lo+wireBatch]); err != nil {
			res.fail("encode replay: %v", err)
			break
		}
	}
	encodeS := time.Since(t0).Seconds()
	v["server.encode_ns_per_row"] = encodeS / float64(len(run.rows)/wireBatch*wireBatch) * 1e9

	// Kernel alone: what a shard does with a batch once it is decoded.
	tracker := features.NewTracker(wireTrackerBound)
	matrix := make([]float64, wireBatch*features.Dim)
	probs := make([]float64, wireBatch)
	t0 = time.Now()
	for lo := 0; lo+wireBatch <= len(run.rows); lo += wireBatch {
		for i, q := range run.rows[lo : lo+wireBatch] {
			r := trace.Request{Time: q.Time, ID: trace.ObjectID(q.ID), Size: q.Size, Cost: q.Cost}
			tracker.Features(r, q.Free, matrix[i*features.Dim:(i+1)*features.Dim])
			tracker.Update(r)
		}
		run.models[0].PredictMatrix(matrix, probs, 1)
		sink += probs[0]
	}
	kernelS := time.Since(t0).Seconds()
	v["server.kernel_ns_per_row"] = kernelS / float64(len(run.rows)/wireBatch*wireBatch) * 1e9

	// Spans: pass → segment → serve|rollout → layer.
	log := &spanLog{epoch: run.start, pass: len(untraced)}
	root := log.add(0, "pass", 0, run.start, run.end)
	log.add(root, "setup", 0, run.start, run.measured)
	start := run.measured
	perRow := func(total float64, n int) time.Duration {
		return time.Duration(total / float64(len(run.rows)) * float64(n) * 1e9)
	}
	for k, end := range run.segEnds {
		segEnd := end
		if k < len(run.rollEnds) {
			segEnd = run.rollEnds[k]
		}
		sg := log.add(root, "segment", k, start, segEnd)
		serve := log.add(sg, "serve", k, start, end)
		log.addReplay(serve, "server.encode", k, perRow(encodeS, segRows))
		log.addReplay(serve, "server.kernel", k, perRow(kernelS, segRows))
		if k < len(run.rollEnds) {
			log.add(sg, "rollout", k, end, run.rollEnds[k])
		}
		start = segEnd
	}
	log.add(root, "sync", 0, start, run.end)
	res.setLayers(v)
	res.Spans = log.spans
}
