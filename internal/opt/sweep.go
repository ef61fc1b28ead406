package opt

import (
	"cmp"
	"slices"
)

// The exact labeler. When every interval of a window costs the same per
// byte (the BHR objective, where C = S), the FOO min-cost flow minimises
// missed bytes and nothing else: each byte of an interval is a unit page
// requested at the interval's start and again at its end, and the LP is
// fractional paging on those bytes with the cache size as capacity. For
// paging, evicting the page whose next request is furthest is optimal
// (Belady), and the exchange argument behind that compares two schedules
// step by step, so it holds for fractional pages alike. The sweep
// therefore reaches the flow's minimum cost in one pass, O(I log I) for I
// intervals instead of a thousand breadth-first passes over the whole
// graph. The flow stays in the package's tests as the sweep's oracle.

// solveExact labels an n-request window with an exact optimum of the FOO
// LP (Figure 4 of the paper) when every selected interval costs the same
// per byte, and with the greedy otherwise. An interval is cached iff the
// sweep kept all of its bytes (§2.1: "verify that all the request's bytes
// are routed along the central path"); repair then adds what that
// all-or-nothing reading of the optimum left out. It sorts ivs by from.
func solveExact(n int, ivs []interval, cfg Config, res *Result) {
	if len(ivs) == 0 {
		return
	}
	if !uniformCosts(ivs) {
		solveGreedy(n, ivs, cfg, res)
		return
	}
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.from, b.from) })
	kept := sweepKept(ivs, n, cfg.CacheSize)
	for k, iv := range ivs {
		res.Admit[iv.from] = kept[k] == iv.size
	}
	repair(ivs, n, cfg.CacheSize, res.Admit)
	res.Segments = 1
	res.FlowIntervals = len(ivs)
}

// uniformCosts reports whether every interval costs the same per byte,
// C/S. Then the flow's cost is a multiple of the bytes it bypasses and
// sweepKept reaches its optimum; under BHR every C/S is exactly 1.
func uniformCosts(ivs []interval) bool {
	for _, iv := range ivs[1:] {
		//lfolint:ignore float-equal C/S is tested for identity, not closeness: only an exactly uniform price makes the sweep's optimum the flow's, and any other window goes to the greedy
		if iv.cost/float64(iv.size) != ivs[0].cost/float64(ivs[0].size) {
			return false
		}
	}
	return true
}

// sweepKept runs the sweep over the intervals of an n-request window
// (sorted by from) and returns, per interval, the bytes it kept in the
// cache over the interval's whole span; size minus kept is what the
// interval misses. At every step the kept bytes of the intervals spanning
// it fit in capacity.
func sweepKept(ivs []interval, n int, capacity int64) []int64 {
	kept := make([]int64, len(ivs))
	// ending[t] is the interval whose bytes leave the cache at step t,
	// or -1: every request index ends at most one interval.
	ending := make([]int32, n)
	for t := range ending {
		ending[t] = -1
	}
	for k, iv := range ivs {
		ending[iv.to] = int32(k)
	}
	h := furthestHeap{ivs: ivs}
	var used int64
	next := 0
	for t := 0; t < n; t++ {
		if k := ending[t]; k >= 0 {
			used -= kept[k]
		}
		if next < len(ivs) && ivs[next].from == t {
			kept[next] = ivs[next].size
			used += ivs[next].size
			h.push(int32(next))
			next++
		}
		// Take bytes from the interval whose end is furthest until the
		// step fits. The top of the heap always spans t: an interval that
		// has ended is only left in the heap below every one that has not,
		// and one that has not ended leaves the heap once it keeps nothing.
		for used > capacity {
			k := h.k[0]
			take := min(kept[k], used-capacity)
			kept[k] -= take
			used -= take
			if kept[k] == 0 {
				h.pop()
			}
		}
	}
	return kept
}

// repair greedily re-admits intervals the extraction left out. LP optima
// can split an interval's bytes between the cache and the bypass
// (footnote 2 of the paper); the all-bytes-central extraction rule then
// discards the interval even when fully caching it would have been
// feasible. The repair replays the occupancy of the admitted set over the
// n-request window and adds the rest with admitByRank. The result is
// feasible and never worse than the raw extraction.
func repair(ivs []interval, n int, capacity int64, admit []bool) {
	occ := newSegTree(n)
	var rest []interval
	for _, iv := range ivs {
		if admit[iv.from] {
			occ.Add(iv.from, iv.to, iv.size)
		} else {
			rest = append(rest, iv)
		}
	}
	admitByRank(rest, occ, capacity, admit)
}

// furthestHeap is a binary max-heap of interval indices keyed by the
// interval's end. Ends are distinct request indices, so the order is
// total and the sweep is a pure function of its input.
type furthestHeap struct {
	ivs []interval
	k   []int32
}

func (h *furthestHeap) less(a, b int) bool { return h.ivs[h.k[a]].to > h.ivs[h.k[b]].to }

func (h *furthestHeap) push(k int32) {
	h.k = append(h.k, k)
	for i := len(h.k) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.k[i], h.k[p] = h.k[p], h.k[i]
		i = p
	}
}

func (h *furthestHeap) pop() {
	last := len(h.k) - 1
	h.k[0] = h.k[last]
	h.k = h.k[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			return
		}
		if c+1 < last && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h.k[i], h.k[c] = h.k[c], h.k[i]
		i = c
	}
}
