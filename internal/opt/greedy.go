package opt

import "sort"

// solveGreedy computes a feasible OPT approximation in the spirit of
// PFOO-L: one rank-order pass over the whole window (admitByRank),
// O(I log n) for I intervals over n requests.
//
// Unlike the flow relaxation, the greedy schedule is feasible — it
// corresponds to an actual cache content assignment — so its hit ratio
// lower-bounds OPT while remaining within a few percent on CDN-like
// workloads.
func solveGreedy(n int, selected []interval, cfg Config, res *Result) {
	if len(selected) == 0 {
		return
	}
	res.Segments = 1
	res.GreedyIntervals = len(selected)
	admitByRank(selected, newSegTree(n), cfg.CacheSize, res.Admit)
}

// admitByRank is the one rank-order admission loop: the greedy pass and
// the repair after the sweep's extraction. It sorts ivs by descending
// C/(S·L) rank (from-ascending on ties) and admits each interval whose
// size fits on top of occ at every time step of its span [from, to) —
// the object must be resident from the instant request from completes
// until request to arrives. An admitted interval is added to occ and
// marked in admit.
func admitByRank(ivs []interval, occ *segTree, capacity int64, admit []bool) {
	sort.Slice(ivs, func(a, b int) bool {
		if ivs[a].rank != ivs[b].rank {
			return ivs[a].rank > ivs[b].rank
		}
		return ivs[a].from < ivs[b].from
	})
	for _, iv := range ivs {
		if occ.Max(iv.from, iv.to)+iv.size <= capacity {
			occ.Add(iv.from, iv.to, iv.size)
			admit[iv.from] = true
		}
	}
}
