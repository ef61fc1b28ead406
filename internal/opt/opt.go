// Package opt computes the offline-optimal caching decisions (OPT) that
// LFO learns from (§2.1 of the paper).
//
// The paper models OPT as a min-cost flow problem (FOO — flow-based
// offline optimal, after Berger, Beckmann and Harchol-Balter, SIGMETRICS
// 2018): each pair of consecutive requests to the same object forms an
// interval whose bytes either rest in the cache (zero cost, bounded by the
// cache size) or bypass it (a miss, costing the retrieval cost). See
// Figure 4 of the paper.
//
// When every interval costs the same per byte (the BHR objective) that
// LP is fractional paging on bytes, and a furthest-next-request sweep
// reaches the flow's optimum over the whole window in O(I log I); the
// min-cost flow itself lives in the package's tests, as the sweep's
// oracle. A window whose per-byte costs differ (the OHR and cost
// objectives) is labelled by a fast feasible greedy (PFOO-L, after
// Berger, Beckmann and Harchol-Balter's practical bounds) that admits
// intervals in rank order subject to a per-time-step capacity check. The
// package also implements the paper's ranking approximation — solve only
// for the intervals with the highest C/(S·L) rank and declare the rest
// uncached. Belady's algorithm is provided for the unit-size special
// case, where it is provably optimal and anchors correctness tests.
package opt

import (
	"fmt"
	"sort"

	"lfo/internal/obs"
	"lfo/internal/trace"
)

// Algorithm selects how OPT decisions are computed.
type Algorithm int

const (
	// AlgoFlow, the default, solves the FOO LP exactly by one sweep over
	// the whole window when every selected interval costs the same per
	// byte, and labels the window as AlgoGreedy does otherwise.
	AlgoFlow Algorithm = iota
	// AlgoGreedy admits intervals in C/(S·L) rank order subject to a
	// feasible per-time-step capacity constraint, in one pass over the
	// whole window.
	AlgoGreedy
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case AlgoFlow:
		return "flow"
	case AlgoGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Config parameterizes the OPT computation.
type Config struct {
	// CacheSize is the cache capacity in bytes. Required.
	CacheSize int64
	// Algorithm selects the solver; AlgoFlow by default.
	Algorithm Algorithm
	// RankFraction, in (0, 1], keeps only the top fraction of intervals
	// ranked by C/(S·L) (§2.1: "split the set of requests along a
	// ranking axis"); the remainder are declared uncached without
	// solving. Zero means 1.0 (solve everything); Compute rejects a
	// value outside [0, 1], NaN included.
	RankFraction float64
	// Workers has no effect on Compute, which labels a window in one
	// sequential pass; mrc.ComputeOPT spreads its cache sizes over this
	// many goroutines (0 means all available cores).
	Workers int
	// Obs, when set, records per-solve totals (solves, exact vs greedy
	// interval counts, dropped intervals). Metrics never influence the
	// solve; nil disables recording (see internal/obs).
	Obs *obs.Registry
}

// Result holds OPT's per-request decisions and the performance OPT
// achieves on the analyzed trace.
type Result struct {
	// Admit reports, per request index, whether OPT keeps the object in
	// the cache from this request until the object's next request.
	// Requests without a further request to the same object are always
	// false (caching them yields no hit).
	Admit []bool
	// Hit reports, per request index, whether the request is served from
	// the cache under OPT's schedule (i.e. the previous interval for the
	// object was admitted).
	Hit []bool
	// Hits is the number of true entries in Hit.
	Hits int
	// HitBytes is the total size of hit requests.
	HitBytes int64
	// TotalBytes is the total size of all requests.
	TotalBytes int64
	// MissCost is the summed Cost of all missed requests, including
	// compulsory first-request misses.
	MissCost float64
	// Solved is the number of intervals given to the solver (after rank
	// selection); Intervals - Solved intervals were dropped unsolved.
	Solved int
	// Intervals is the total number of intervals (requests with a next
	// request).
	Intervals int
	// Segments is 1 when any interval was selected and 0 otherwise: the
	// window is always labelled in one piece.
	Segments int
	// FlowIntervals and GreedyIntervals count selected intervals labeled
	// by the exact sweep and by the greedy. One of them is Solved and the
	// other zero.
	FlowIntervals   int
	GreedyIntervals int
}

// DroppedIntervals returns the intervals excluded by rank selection and
// declared uncached without solving.
func (r *Result) DroppedIntervals() int { return r.Intervals - r.Solved }

// AlgoLabel reports which solver produced the labels: "sweep", "greedy",
// or "none" (no intervals).
func (r *Result) AlgoLabel() string {
	switch {
	case r.FlowIntervals > 0:
		return "sweep"
	case r.GreedyIntervals > 0:
		return "greedy"
	}
	return "none"
}

// BHR returns the byte hit ratio achieved by OPT's schedule.
func (r *Result) BHR() float64 {
	if r.TotalBytes == 0 {
		return 0
	}
	return float64(r.HitBytes) / float64(r.TotalBytes)
}

// OHR returns the object hit ratio achieved by OPT's schedule.
func (r *Result) OHR() float64 {
	if len(r.Hit) == 0 {
		return 0
	}
	return float64(r.Hits) / float64(len(r.Hit))
}

// interval is a span between consecutive requests to one object.
type interval struct {
	from, to int // request indices
	size     int64
	cost     float64 // full retrieval cost C for a miss on this interval
	rank     float64 // C / (S * L)
}

// buildIntervals extracts all reuse intervals and ranks them.
func buildIntervals(tr *trace.Trace) []interval {
	next := tr.NextRequestIndex()
	var ivs []interval
	for i, r := range tr.Requests {
		j := next[i]
		if j < 0 {
			continue
		}
		l := float64(j - i)
		ivs = append(ivs, interval{
			from: i, to: j,
			size: r.Size,
			cost: tr.Requests[j].Cost, // cost saved if request j hits
			rank: tr.Requests[j].Cost / (float64(r.Size) * l),
		})
	}
	return ivs
}

// selectByRank returns the top fraction of intervals by rank, preserving
// no particular order. fraction must be in (0,1].
func selectByRank(ivs []interval, fraction float64) []interval {
	if fraction >= 1 || len(ivs) == 0 {
		return ivs
	}
	keep := int(float64(len(ivs)) * fraction)
	if keep < 1 {
		keep = 1
	}
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].rank > sorted[b].rank })
	return sorted[:keep]
}

// Compute derives OPT's decisions for the trace under the config.
func Compute(tr *trace.Trace, cfg Config) (*Result, error) {
	if !(cfg.RankFraction >= 0 && cfg.RankFraction <= 1) {
		return nil, fmt.Errorf("opt: RankFraction must be in [0, 1], got %v", cfg.RankFraction)
	}
	if cfg.RankFraction == 0 {
		cfg.RankFraction = 1
	}
	if cfg.CacheSize <= 0 {
		return nil, fmt.Errorf("opt: CacheSize must be positive, got %d", cfg.CacheSize)
	}
	n := tr.Len()
	res := &Result{
		Admit: make([]bool, n),
		Hit:   make([]bool, n),
	}
	ivs := buildIntervals(tr)
	res.Intervals = len(ivs)
	selected := selectByRank(ivs, cfg.RankFraction)
	res.Solved = len(selected)

	switch cfg.Algorithm {
	case AlgoFlow:
		solveExact(n, selected, cfg, res)
	case AlgoGreedy:
		solveGreedy(n, selected, cfg, res)
	default:
		return nil, fmt.Errorf("opt: unknown algorithm %v", cfg.Algorithm)
	}

	// Derive hits and miss cost from the admission schedule.
	prev := tr.PrevRequestIndex()
	for j, r := range tr.Requests {
		res.TotalBytes += r.Size
		i := prev[j]
		if i >= 0 && res.Admit[i] {
			res.Hit[j] = true
			res.Hits++
			res.HitBytes += r.Size
		} else {
			res.MissCost += r.Cost
		}
	}
	recordSolve(cfg.Obs, res)
	return res, nil
}

// recordSolve accumulates one solve's solver mix into the registry (a
// no-op for a nil registry).
func recordSolve(r *obs.Registry, res *Result) {
	if r == nil {
		return
	}
	r.Counter("opt_solves_total").Inc()
	r.Counter("opt_intervals_total").Add(int64(res.Intervals))
	r.Counter("opt_solved_intervals_total").Add(int64(res.Solved))
	r.Counter("opt_dropped_intervals_total").Add(int64(res.DroppedIntervals()))
	r.Counter("opt_flow_intervals_total").Add(int64(res.FlowIntervals))
	r.Counter("opt_greedy_intervals_total").Add(int64(res.GreedyIntervals))
}
