package opt

import "slices"

// The furthest-next-request sweep. When every interval of a segment costs
// the same per byte (the BHR objective, where C = S), the FOO min-cost
// flow minimises missed bytes and nothing else: each byte of an interval
// is a unit page requested at the interval's start and again at its end,
// and the LP is fractional paging on those bytes with a capacity that
// varies over time (the cache size minus the bytes stitched boundary
// intervals reserve). For paging, evicting the page whose next request is
// furthest is optimal (Belady), and the exchange argument behind that
// compares two schedules step by step, so it holds for any capacity
// profile and for fractional pages alike. The sweep therefore reaches the
// flow's minimum cost in one pass, O(I log I) for I intervals instead of
// a thousand breadth-first passes over the whole graph.

// sweepKept runs the sweep over the segment's intervals (sorted by from)
// and returns, per interval, the bytes it kept in the cache over the
// interval's whole span; size minus kept is what the interval misses.
// sc.occ must hold the boundary reservation, indexed from sg.lo. At every
// step the kept bytes of the intervals spanning it fit in the cache size
// minus the reservation there. The result aliases sc.kept.
func sweepKept(sg *segment, capacity int64, sc *solveScratch) []int64 {
	ivs, n := sg.ivs, sg.hi-sg.lo
	kept := slices.Grow(sc.kept[:0], len(ivs))[:len(ivs)]
	// ending[t] is the interval whose bytes leave the cache at step t,
	// or -1: every request index ends at most one interval.
	ending := slices.Grow(sc.ending[:0], n)[:n]
	for t := range ending {
		ending[t] = -1
	}
	for k, iv := range ivs {
		if iv.to < sg.hi {
			ending[iv.to-sg.lo] = int32(k)
		}
	}
	h := furthestHeap{ivs: ivs, k: sc.heap[:0]}
	var used int64
	next := 0
	for t := 0; t < n; t++ {
		if k := ending[t]; k >= 0 {
			used -= kept[k]
		}
		if next < len(ivs) && ivs[next].from-sg.lo == t {
			kept[next] = ivs[next].size
			used += ivs[next].size
			h.push(int32(next))
			next++
		}
		free := capacity
		if len(sg.bnd) > 0 {
			free = max(capacity-sc.occ.Max(t, t+1), 0)
		}
		// Take bytes from the interval whose end is furthest until the
		// step fits. The top of the heap always spans t: an interval that
		// has ended is only left in the heap below every one that has not,
		// and one that has not ended leaves the heap once it keeps nothing.
		for used > free {
			k := h.k[0]
			take := min(kept[k], used-free)
			kept[k] -= take
			used -= take
			if kept[k] == 0 {
				h.pop()
			}
		}
	}
	sc.kept, sc.ending, sc.heap = kept, ending, h.k[:0]
	return kept
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
