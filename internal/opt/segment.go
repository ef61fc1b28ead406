package opt

import (
	"fmt"
	"sort"

	"lfo/internal/mcf"
	"lfo/internal/par"
)

// Segmented solve (the PFOO decomposition). The FOO min-cost flow only
// couples intervals through the shared cache capacity over time, so the
// window decomposes along the time axis: cut the request sequence at
// points few intervals cross, solve each segment's flow independently,
// and stitch the intervals that span a cut with the rank-order greedy.
// Because the cuts, the stitching order, and each segment's solve depend
// only on the trace and the config — never on scheduling — the result is
// byte-identical for any Workers value.

// autoFlowLimit is the interval count up to which Segments=0 keeps a
// window whose per-byte costs differ (the ohr and cost objectives) in one
// exact flow solve (the solve grows super-linearly in the interval count);
// a window with uniform costs is swept whole at any size. 12 000 was
// sized for the path-at-a-time solver this package used to sit on (a
// 13.6k-interval window took it 50 s; the primal-dual solver takes 4.9 s)
// and is therefore conservative now; raising it re-labels every large
// non-uniform window, so it waits for its own measurement.
const autoFlowLimit = 12000

// autoSegmentIntervals is the per-segment interval target when Segments=0
// auto-segments a non-uniform window larger than autoFlowLimit. The flow
// solve grows super-linearly in the interval count, so many moderate
// segments beat one big solve even on a single core. The target trades exactness
// against time: smaller segments cut more intervals (each stitched
// greedily instead of solved), larger ones blow up the per-segment solve.
// ~4000 was chosen to keep a segment around half a second on the old
// path-at-a-time solver; the primal-dual solver spends ~0.1 s on such a
// segment (33 of them in 3.4 s on a 130k-interval window, of which 56 %
// are labeled exactly), so the target is conservative now: 8 segments
// label 74 % exactly in 34 s. Moving it re-labels every large window and
// is left to a change that measures what the extra exactness buys.
const autoSegmentIntervals = 4000

// costScale is what the cheapest per-byte miss cost of a segment becomes
// in the flow solver's integral arc costs (see quantiseCosts).
const costScale = 1024

// segment is one time-axis slice of the window: the request span [lo, hi)
// plus the selected intervals fully contained in it.
type segment struct {
	lo, hi int
	ivs    []interval // contained intervals, sorted by from
	bnd    []interval // admitted boundary intervals overlapping the span
	swept  bool       // labelled by the sweep rather than the flow
	stats  mcf.Stats  // the flow solver's work counters
}

// solveSegmented partitions the selected intervals of an n-request window
// into time-axis segments, stitches boundary intervals, and solves the
// segments' flows concurrently, writing admissions and label stats into
// res.
func solveSegmented(n int, selected []interval, cfg Config, res *Result) error {
	if len(selected) == 0 {
		return nil
	}
	segs, boundary := stitchSegments(n, selected, cfg, res.Admit)
	res.Segments = len(segs)
	res.BoundaryIntervals = len(boundary)

	// Solve segments concurrently. Each chunk of segments shares one
	// scratch set (graph arena, solver state, occupancy tree); each
	// segment writes only its own intervals' Admit slots and its own
	// error slot, so the parallel phase is race-free and byte-identical
	// for any worker count.
	errs := make([]error, len(segs))
	par.Ranges(len(segs), cfg.Workers, 1, func(lo, hi int) {
		sc := newSolveScratch()
		for s := lo; s < hi; s++ {
			errs[s] = solveSegment(&segs[s], cfg, res, sc)
		}
	})
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("opt: segment %d [%d,%d): %w", s, segs[s].lo, segs[s].hi, err)
		}
	}

	// Reduce label stats in segment order.
	for i := range segs {
		res.FlowIntervals += len(segs[i].ivs)
		if segs[i].swept {
			res.SweepIntervals += len(segs[i].ivs)
		}
		res.FlowAugmentations += segs[i].stats.Augmentations
		res.FlowPasses += segs[i].stats.Passes
		res.FlowPotentialMoves += segs[i].stats.PotentialMoves
	}
	res.GreedyIntervals += len(boundary) // stitched greedily
	return nil
}

// stitchSegments puts the selected intervals in from-order (froms are
// unique, so the order does not depend on how rank selection permuted
// them), plans the segments, and stitches the intervals that cross a cut:
// it admits them greedily in rank order against a whole-window occupancy
// tree and hands each segment the admitted ones overlapping its span, so
// every segment sees the same reserved bytes. It runs before and apart
// from the parallel phase, in order, so it is deterministic.
func stitchSegments(n int, selected []interval, cfg Config, admit []bool) ([]segment, []interval) {
	ivs := append([]interval(nil), selected...)
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].from < ivs[b].from })
	segs, boundary := planSegments(n, ivs, cfg)
	if len(boundary) > 0 {
		admitByRank(boundary, newSegTree(n), 0, cfg.CacheSize, admit)
		distributeBoundary(segs, boundary, admit)
	}
	return segs, boundary
}

// planSegments picks the segment count, the cut points, and partitions
// the from-sorted intervals into contained-per-segment and boundary sets.
func planSegments(n int, ivs []interval, cfg Config) ([]segment, []interval) {
	target := segmentCount(ivs, cfg)
	cuts := chooseCuts(n, ivs, target)
	bounds := make([]int, 0, len(cuts)+2)
	bounds = append(bounds, 0)
	bounds = append(bounds, cuts...)
	bounds = append(bounds, n)

	segs := make([]segment, len(bounds)-1)
	for i := range segs {
		segs[i].lo, segs[i].hi = bounds[i], bounds[i+1]
	}
	var boundary []interval
	si := 0
	for _, iv := range ivs {
		for iv.from >= segs[si].hi {
			si++
		}
		if iv.to <= segs[si].hi {
			segs[si].ivs = append(segs[si].ivs, iv)
		} else {
			boundary = append(boundary, iv)
		}
	}
	return segs, boundary
}

// segmentCount resolves the Segments knob to a target segment count. The
// sweep is O(I log I), so auto keeps a window with uniform costs whole.
func segmentCount(ivs []interval, cfg Config) int {
	s := cfg.Segments
	if s == 0 {
		if len(ivs) <= autoFlowLimit || uniformCosts(ivs) {
			return 1
		}
		s = (len(ivs) + autoSegmentIntervals - 1) / autoSegmentIntervals
	}
	return min(s, len(ivs))
}

// chooseCuts picks up to segments-1 interior cut times in (0, n), each
// minimizing the number of intervals crossing it. Ideal positions split
// the intervals into equal-count runs; each cut searches a bounded window
// around its ideal position for the minimum-crossing time, breaking ties
// toward the time closest to the ideal and then toward the smaller time,
// so the cuts are a pure function of the intervals and the config.
func chooseCuts(n int, ivs []interval, segments int) []int {
	if segments <= 1 || len(ivs) == 0 || n <= 1 {
		return nil
	}
	// crossing[t] = #intervals with from < t < to, built as a difference
	// array and prefix-summed.
	crossing := make([]int32, n+1)
	for _, iv := range ivs {
		if iv.from+1 < iv.to {
			crossing[iv.from+1]++
			crossing[iv.to]--
		}
	}
	for t := 1; t <= n; t++ {
		crossing[t] += crossing[t-1]
	}

	radius := n / (4 * segments)
	if radius < 1 {
		radius = 1
	}
	cuts := make([]int, 0, segments-1)
	prev := 0
	for k := 1; k < segments; k++ {
		ideal := ivs[k*len(ivs)/segments].from
		lo := ideal - radius
		if lo <= prev {
			lo = prev + 1
		}
		hi := ideal + radius
		if hi >= n {
			hi = n - 1
		}
		if lo > hi {
			continue // no room left for this cut; merge with neighbor
		}
		bestT := -1
		var best int32
		for t := lo; t <= hi; t++ {
			c := crossing[t]
			if bestT < 0 || c < best ||
				(c == best && absInt(t-ideal) < absInt(bestT-ideal)) {
				best, bestT = c, t
			}
		}
		cuts = append(cuts, bestT)
		prev = bestT
	}
	return cuts
}

// distributeBoundary hands each admitted boundary interval to every
// segment whose span it overlaps, so segment solves can subtract the
// reserved bytes from their local capacity profile.
func distributeBoundary(segs []segment, boundary []interval, admit []bool) {
	for _, iv := range boundary {
		if !admit[iv.from] {
			continue
		}
		// First segment whose span extends past the interval start.
		s := sort.Search(len(segs), func(i int) bool { return segs[i].hi > iv.from })
		for ; s < len(segs) && segs[s].lo < iv.to; s++ {
			segs[s].bnd = append(segs[s].bnd, iv)
		}
	}
}

// solveScratch is the reusable per-worker state for segment solves: the
// flow graph arena, the SSP solver scratch, the local occupancy tree, the
// sweep's buffers and the endpoint/bypass/repair buffers. One scratch
// serves all segments of a worker's chunk, so repeated window solves stop
// reallocating.
type solveScratch struct {
	g      *mcf.Graph
	solver *mcf.Solver
	occ    *segTree
	idx    []int
	bypass []int
	costs  []int64
	rest   []interval
	kept   []int64
	ending []int32
	heap   []int32
}

func newSolveScratch() *solveScratch {
	return &solveScratch{
		g:      mcf.NewGraph(0),
		solver: mcf.NewSolver(),
		occ:    newSegTree(1),
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
