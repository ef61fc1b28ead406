package opt

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// solveSegment labels one segment with an exact optimum of the FOO LP
// (Figure 4 of the paper): it seeds the local occupancy tree with the
// boundary bytes reserved across the segment's span and marks Admit[i] for
// every interval whose bytes all stay in the cache, then lets
// repairSegment add what the all-or-nothing reading of the optimum left
// out. The segment's costs choose the solver: when every interval costs
// the same per byte (uniformCosts) the furthest-next-request sweep solves
// the LP, otherwise the min-cost flow does, and an interval is cached iff
// no byte of it bypassed the cache (§2.1: "verify that all the request's
// bytes are routed along the central path"). The graph, solver, and
// buffers in sc are reused across calls.
func solveSegment(sg *segment, cfg Config, res *Result, sc *solveScratch) error {
	if len(sg.ivs) == 0 {
		return nil
	}
	sg.reserve(sc.occ)
	if sg.swept = uniformCosts(sg.ivs); sg.swept {
		kept := sweepKept(sg, cfg.CacheSize, sc)
		for k, iv := range sg.ivs {
			res.Admit[iv.from] = kept[k] == iv.size
		}
	} else {
		buildFlowGraph(sg, cfg.CacheSize, costScale, sc)
		_, err := sc.solver.Solve(sc.g)
		sg.stats = sc.solver.Stats()
		if err != nil {
			return fmt.Errorf("FOO flow solve: %w", err)
		}
		for k, iv := range sg.ivs {
			res.Admit[iv.from] = sc.g.Flow(sc.bypass[k]) == 0
		}
	}
	repairSegment(sg, cfg, res, sc)
	return nil
}

// reserve resets occ to the segment's span and adds the bytes the
// stitched boundary intervals hold across it.
func (sg *segment) reserve(occ *segTree) {
	occ.reset(sg.hi - sg.lo)
	for _, b := range sg.bnd {
		occ.Add(max(b.from, sg.lo)-sg.lo, min(b.to, sg.hi)-sg.lo, b.size)
	}
}

// buildFlowGraph resets sc.g to the FOO graph of one segment and records
// each interval's bypass edge in sc.bypass. sc.occ must hold the boundary
// occupancy (indices relative to sg.lo); scale is quantiseCosts' costScale.
//
// The graph uses the per-interval formulation, which is equivalent to the
// paper's first-to-last-request formulation after supply cancellation at
// interior nodes: each interval injects size bytes at its start request and
// withdraws them at its end request; a bypass arc of capacity size and
// per-byte cost C/S (made integral by quantiseCosts) models a miss, while
// central arcs of zero cost model storing bytes in the cache. A central
// arc's capacity is the cache size minus the bytes already reserved by
// stitched boundary intervals over the arc's time span, so segments never
// overcommit shared capacity.
//
// Only request indices that appear as interval endpoints become nodes
// (consecutive endpoints are joined by a single central arc), which keeps
// the graph small when rank selection drops intervals.
func buildFlowGraph(sg *segment, capacity, scale int64, sc *solveScratch) {
	// Collect endpoint request indices and compress to node ids: sort,
	// dedup in place, and look nodes up by binary search — no maps, so the
	// hot path stays allocation-free across reuses.
	idx := sc.idx[:0]
	for _, iv := range sg.ivs {
		idx = append(idx, iv.from, iv.to)
	}
	sort.Ints(idx)
	m := 0
	for _, v := range idx {
		if m == 0 || v != idx[m-1] {
			idx[m] = v
			m++
		}
	}
	idx = idx[:m]
	sc.idx = idx

	g := sc.g
	g.Reset(len(idx))
	// Central path: consecutive compressed nodes, capacity = cache size
	// minus peak boundary occupancy over the gap.
	for k := 0; k+1 < len(idx); k++ {
		free := capacity - sc.occ.Max(idx[k]-sg.lo, idx[k+1]-sg.lo)
		if free < 0 {
			free = 0
		}
		g.AddEdge(k, k+1, free, 0)
	}
	// Bypass arcs and supplies per interval.
	sc.costs, _ = quantiseCosts(sg.ivs, scale, sc.costs)
	bypass := sc.bypass[:0]
	for k, iv := range sg.ivs {
		u := sort.SearchInts(idx, iv.from)
		v := sort.SearchInts(idx, iv.to)
		bypass = append(bypass, g.AddEdge(u, v, iv.size, sc.costs[k]))
		g.AddSupply(u, iv.size)
		g.AddSupply(v, -iv.size)
	}
	sc.bypass = bypass
}

// maxFlowCost bounds both the total cost of a segment's flow and the
// largest node potential the solver can reach, well inside int64.
const maxFlowCost = 1 << 62

// quantiseCosts turns the intervals' per-byte miss costs C/S into the
// integral arc costs the flow solver needs: one per interval in out[:0],
// each C/S times the returned scale, rounded. The scale is chosen per
// segment: the smallest per-byte cost maps to costScale and the others
// proportionally, so the cost ratios between intervals survive whatever
// the objective's unit is. (Under the OHR objective C/S is 1/size, far
// below one; a single global scale rounded nearly every object to the
// floor of 1 and the flow minimised missed bytes instead of misses.)
// Under BHR every C/S is exactly 1 and every arc costs exactly costScale.
// The scale is capped so that Σ cost·size, the most a flow can cost, and
// nodes × the largest cost, the most a potential can reach, stay below
// maxFlowCost; a cost that the cap or a zero C rounds to nothing is
// floored at 1, since a free bypass arc would make a miss as good as a
// hit.
func quantiseCosts(ivs []interval, costScale int64, out []int64) ([]int64, float64) {
	scale := quantScale(ivs, costScale)
	out = slices.Grow(out[:0], len(ivs))
	for _, iv := range ivs {
		out = append(out, quantise(iv, scale))
	}
	return out, scale
}

// uniformCosts reports whether quantiseCosts gives every interval the same
// arc cost. Then the flow's cost is a multiple of the bytes it bypasses
// and sweepKept reaches its optimum; under BHR this holds for every
// segment.
func uniformCosts(ivs []interval) bool {
	if len(ivs) == 0 {
		return true
	}
	scale := quantScale(ivs, costScale)
	c := quantise(ivs[0], scale)
	for _, iv := range ivs[1:] {
		if quantise(iv, scale) != c {
			return false
		}
	}
	return true
}

// quantScale is the factor quantiseCosts multiplies per-byte costs by.
func quantScale(ivs []interval, costScale int64) float64 {
	minPB, maxPB, total := math.Inf(1), 0.0, 0.0
	for _, iv := range ivs {
		pb := iv.cost / float64(iv.size)
		if pb > 0 && pb < minPB {
			minPB = pb
		}
		if pb > maxPB {
			maxPB = pb
		}
		total += iv.cost
	}
	scale := float64(costScale)
	if maxPB > 0 {
		scale /= minPB
		nodes := float64(2*len(ivs) + 2)
		if lim := maxFlowCost / 2 / math.Max(total, nodes*maxPB); scale > lim {
			scale = lim
		}
	}
	return scale
}

// quantise is one interval's arc cost at the given scale.
func quantise(iv interval, scale float64) int64 {
	return max(int64(iv.cost/float64(iv.size)*scale+0.5), 1)
}

// repairSegment greedily re-admits intervals the extraction left out. LP
// optima, the flow's and the sweep's alike, can split an interval's bytes
// between the cache and the bypass (footnote 2 of the paper); the
// all-bytes-central extraction rule then discards the interval even when
// fully caching it would have been feasible. The repair replays
// occupancy of the admitted set on top of the boundary reservation
// already in sc.occ and adds the rest with admitByRank. The result is
// feasible and never worse than the raw extraction.
func repairSegment(sg *segment, cfg Config, res *Result, sc *solveScratch) {
	rest := sc.rest[:0]
	for _, iv := range sg.ivs {
		if res.Admit[iv.from] {
			sc.occ.Add(iv.from-sg.lo, iv.to-sg.lo, iv.size)
		} else {
			rest = append(rest, iv)
		}
	}
	admitByRank(rest, sc.occ, sg.lo, cfg.CacheSize, res.Admit)
	sc.rest = rest[:0]
}
