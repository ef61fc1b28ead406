package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
)

// blockSize is the unit of service of the cache workloads: the clock is
// read once per blockSize requests, never per request (a clock read costs
// 5–8 % of a 1.4 µs request).
const blockSize = 32

// metric is one reported number. Passes holds the value each pass alone
// would have reported; Value comes from the element-wise fastest of them.
type metric struct {
	Name   string
	Value  float64
	Unit   string
	Passes []float64
}

// pass is what one replay of a workload measured. Every slice has the
// same length and order in each pass of a run.
type pass struct {
	setupS   float64
	units    []float64 // seconds per unit of service, handoff units excluded
	handoffs []float64 // seconds per measured handoff
	extra    []float64 // seconds per operation counted in sustained_per_s only
	serveOps int64     // operations inside units
	allOps   int64     // operations inside units, handoffs and extra
	reqs     int64     // requests of the model-served phase
	hits     int64
	bytes    int64
	hitBytes int64
	checksum uint64 // over the hit/miss (and probability) sequence
	alloc    uint64 // TotalAlloc delta over the measured phase
}

// result is everything one run reports.
type result struct {
	Workload  string
	Seed      int64
	Passes    int
	EndToEnd  []metric
	PerLayer  []metric
	Samples   int // units behind serve_p90_us
	Attempted int64
	Failed    int64
	Failures  []string
	Checksums []uint64
	Spans     []span
}

func (r *result) fail(format string, args ...interface{}) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// fastestOf is fastest over one timed column of the passes.
func fastestOf(passes []pass, column func(p *pass) []float64) ([]float64, error) {
	all := make([][]float64, len(passes))
	for i := range passes {
		all[i] = column(&passes[i])
	}
	return fastest(all)
}

// endToEndValue returns the reported value of one end-to-end metric.
func (r *result) endToEndValue(name string) float64 {
	for _, m := range r.EndToEnd {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// perPass evaluates f on every pass.
func perPass(passes []pass, f func(p *pass) float64) []float64 {
	out := make([]float64, len(passes))
	for i := range passes {
		out[i] = f(&passes[i])
	}
	return out
}

// endToEnd derives the timing and hit-ratio metrics from the passes of one
// run. Every pass does the same work in the same order, so every timed
// element — one unit of service, one handoff, one extra operation, a pass's
// set-up — is taken as the fastest of the passes and then aggregated: what
// the work costs when nothing else has the core. On a shared box that floor
// is the only statistic that repeats; a pass's own totals move by tens of
// per cent with the neighbours. It leaves out what lands on another unit in
// every pass — collector pauses and assists, scheduler delays — so the
// reported rates are better than any single pass measured; the collector's
// share shows in alloc_bytes_per_op instead. liveHeapMB is measured by the
// caller after the last pass.
func endToEnd(passes []pass, liveHeapMB float64) ([]metric, error) {
	units, err := fastestOf(passes, func(p *pass) []float64 { return p.units })
	if err != nil {
		return nil, err
	}
	handoffs, err := fastestOf(passes, func(p *pass) []float64 { return p.handoffs })
	if err != nil {
		return nil, err
	}
	extra, err := fastestOf(passes, func(p *pass) []float64 { return p.extra })
	if err != nil {
		return nil, err
	}
	setupS := func(p *pass) float64 { return p.setupS }

	p0 := &passes[0]
	servePerS := func(units []float64, ops int64) float64 { return float64(ops) / sum(units) }
	sustained := func(units, handoffs, extra []float64, ops int64) float64 {
		return float64(ops) / (sum(units) + sum(handoffs) + sum(extra))
	}
	allocs := perPass(passes, func(p *pass) float64 { return float64(p.alloc) / float64(p.allOps) })

	return []metric{
		{"setup_s", minOf(perPass(passes, setupS)), "s", perPass(passes, setupS)},
		{"serve_per_s", servePerS(units, p0.serveOps), "1/s",
			perPass(passes, func(p *pass) float64 { return servePerS(p.units, p.serveOps) })},
		{"serve_p90_us", percentile(units, 0.9) * 1e6, "us",
			perPass(passes, func(p *pass) float64 { return percentile(p.units, 0.9) * 1e6 })},
		{"handoff_s", median(handoffs), "s", perPass(passes, func(p *pass) float64 { return median(p.handoffs) })},
		{"sustained_per_s", sustained(units, handoffs, extra, p0.allOps), "1/s",
			perPass(passes, func(p *pass) float64 { return sustained(p.units, p.handoffs, p.extra, p.allOps) })},
		{"bhr", float64(p0.hitBytes) / float64(p0.bytes), "share",
			perPass(passes, func(p *pass) float64 { return float64(p.hitBytes) / float64(p.bytes) })},
		{"ohr", float64(p0.hits) / float64(p0.reqs), "share",
			perPass(passes, func(p *pass) float64 { return float64(p.hits) / float64(p.reqs) })},
		{"alloc_bytes_per_op", minOf(allocs), "B", allocs},
		{"live_heap_mb", liveHeapMB, "MB", nil},
	}, nil
}

// checkPasses verifies that every pass made the same decisions as pass 0.
func (r *result) checkPasses(passes []pass) {
	for i := range passes {
		p := &passes[i]
		r.Checksums = append(r.Checksums, p.checksum)
		if p.checksum != passes[0].checksum || p.hits != passes[0].hits || p.hitBytes != passes[0].hitBytes {
			r.fail("pass %d decided differently from pass 0: checksum %x vs %x, hits %d vs %d",
				i, p.checksum, passes[0].checksum, p.hits, passes[0].hits)
		}
	}
}

// liveHeapMB is HeapAlloc after a forced collection; the caller keeps the
// objects it wants counted reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// render formats every metric by name and unit, then the one-line JSON
// object the benchmark pipeline reads: end-to-end metrics for an untraced
// run, per-layer metrics for a traced one.
func (r *result) render(traced bool) ([]byte, error) {
	w := new(bytes.Buffer)
	fmt.Fprintf(w, "workload %s seed %d passes %d nproc %d GOMAXPROCS %d %s commit %s\n",
		r.Workload, r.Seed, r.Passes, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Fprintf(w, "operations attempted %d failed %d; serve_p90_us over %d samples; pass checksums %x\n",
		r.Attempted, r.Failed, r.Samples, r.Checksums)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	for _, m := range r.EndToEnd {
		fmt.Fprintf(w, "%-24s %16.6f %-6s", m.Name, m.Value, m.Unit)
		if len(m.Passes) > 0 {
			fmt.Fprintf(w, " passes %.6g spread %.1f%%", m.Passes, 100*spread(m.Passes))
		}
		fmt.Fprintln(w)
	}
	for _, m := range r.PerLayer {
		fmt.Fprintf(w, "%-36s %16.6f %s\n", m.Name, m.Value, m.Unit)
	}

	reported := r.EndToEnd
	if traced {
		reported = r.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, make(map[string]value, len(reported))}
	for _, m := range reported {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", m.Name)
		}
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	w.Write(line)
	w.WriteByte('\n')
	return w.Bytes(), nil
}

// commit is the VCS revision stamped into the binary, when there is one
// (the pipeline's checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
