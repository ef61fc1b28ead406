package opt

// segTree is a lazy-propagation segment tree over n slots supporting
// range-add and range-max. The feasible greedy OPT approximation uses it
// to track cache occupancy over time: admitting an interval adds the
// object's size to every time step the interval spans, and feasibility is
// a range-max query against the cache capacity.
type segTree struct {
	n    int
	max  []int64
	lazy []int64
}

// newSegTree returns a tree over slots [0, n).
func newSegTree(n int) *segTree {
	if n <= 0 {
		n = 1
	}
	return &segTree{n: n, max: make([]int64, 4*n), lazy: make([]int64, 4*n)}
}

// Add adds v to every slot in [lo, hi).
func (s *segTree) Add(lo, hi int, v int64) {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return
	}
	s.add(1, 0, s.n, lo, hi, v)
}

// Max returns the maximum over slots [lo, hi); it returns the smallest
// int64 for an empty range.
func (s *segTree) Max(lo, hi int) int64 {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return -1 << 63
	}
	return s.query(1, 0, s.n, lo, hi)
}

func (s *segTree) add(node, nlo, nhi, lo, hi int, v int64) {
	if lo <= nlo && nhi <= hi {
		s.max[node] += v
		s.lazy[node] += v
		return
	}
	mid := (nlo + nhi) / 2
	if lo < mid {
		s.add(2*node, nlo, mid, lo, hi, v)
	}
	if hi > mid {
		s.add(2*node+1, mid, nhi, lo, hi, v)
	}
	s.max[node] = maxI64(s.max[2*node], s.max[2*node+1]) + s.lazy[node]
}

func (s *segTree) query(node, nlo, nhi, lo, hi int) int64 {
	if lo <= nlo && nhi <= hi {
		return s.max[node]
	}
	mid := (nlo + nhi) / 2
	res := int64(-1 << 63)
	if lo < mid {
		res = maxI64(res, s.query(2*node, nlo, mid, lo, hi))
	}
	if hi > mid {
		res = maxI64(res, s.query(2*node+1, mid, nhi, lo, hi))
	}
	return res + s.lazy[node]
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
