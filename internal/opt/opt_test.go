package opt

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lfo/internal/gen"
	"lfo/internal/trace"
)

// paperTrace is the running example from Figure 3 of the paper:
// objects a=1(size 3), b=2(1), c=3(1), d=4(2), request order
// a b c b d a c d a b b a.
func paperTrace(obj trace.Objective) *trace.Trace {
	ids := []trace.ObjectID{1, 2, 3, 2, 4, 1, 3, 4, 1, 2, 2, 1}
	sizes := map[trace.ObjectID]int64{1: 3, 2: 1, 3: 1, 4: 2}
	t := &trace.Trace{}
	for i, id := range ids {
		t.Requests = append(t.Requests, trace.Request{Time: int64(i), ID: id, Size: sizes[id]})
	}
	return t.WithCosts(obj)
}

// TestFlowPaperExampleBHR checks the exact OPT value for the Figure 3
// trace with cache size 4 under the BHR objective, worked out by hand:
// OPT caches all three a-intervals and all three b-intervals for 12 hit
// bytes out of 22 requested bytes.
func TestFlowPaperExampleBHR(t *testing.T) {
	tr := paperTrace(trace.ObjectiveBHR)
	res, err := Compute(tr, Config{CacheSize: 4, Algorithm: AlgoFlow})
	if err != nil {
		t.Fatal(err)
	}
	if res.HitBytes != 12 {
		t.Errorf("HitBytes = %d, want 12", res.HitBytes)
	}
	if res.TotalBytes != 22 {
		t.Errorf("TotalBytes = %d, want 22", res.TotalBytes)
	}
	if got := res.BHR(); got != 12.0/22.0 {
		t.Errorf("BHR = %g, want %g", got, 12.0/22.0)
	}
	// Hits must fall exactly on the later a and b requests.
	wantHits := map[int]bool{3: true, 5: true, 8: true, 9: true, 10: true, 11: true}
	for i, h := range res.Hit {
		if h != wantHits[i] {
			t.Errorf("Hit[%d] = %v, want %v", i, h, wantHits[i])
		}
	}
	if res.Intervals != 8 {
		t.Errorf("Intervals = %d, want 8", res.Intervals)
	}
}

// TestFlowPaperExampleOHR checks the OHR objective on the same trace
// against the min-cost flow: the optimum caches b1,b2,b3,c1,d1 and the
// last a-interval for 6 of 12 hits.
func TestFlowPaperExampleOHR(t *testing.T) {
	admit, _ := flowLabels(t, paperTrace(trace.ObjectiveOHR), 4)
	if hits, _ := scoreAdmit(paperTrace(trace.ObjectiveOHR), admit); hits != 6 {
		t.Errorf("Hits = %d, want 6", hits)
	}
}

func TestComputeRejectsBadCacheSize(t *testing.T) {
	if _, err := Compute(paperTrace(trace.ObjectiveBHR), Config{CacheSize: 0}); err == nil {
		t.Error("CacheSize=0 accepted")
	}
}

func TestComputeEmptyTrace(t *testing.T) {
	res, err := Compute(&trace.Trace{}, Config{CacheSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 0 || len(res.Admit) != 0 || res.BHR() != 0 || res.OHR() != 0 || res.AlgoLabel() != "none" {
		t.Error("empty trace produced hits")
	}
}

func TestComputeRejectsUnknownAlgorithm(t *testing.T) {
	if _, err := Compute(paperTrace(trace.ObjectiveBHR), Config{CacheSize: 4, Algorithm: Algorithm(2)}); err == nil {
		t.Error("Algorithm(2) accepted")
	}
}

// TestGreedyFeasibleAndDominatedByFlow: the greedy schedule must be
// feasible and can never beat the flow-based optimum.
func TestGreedyFeasibleAndDominatedByFlow(t *testing.T) {
	tr := paperTrace(trace.ObjectiveBHR)
	flow, err := Compute(tr, Config{CacheSize: 4, Algorithm: AlgoFlow})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Compute(tr, Config{CacheSize: 4, Algorithm: AlgoGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.HitBytes > flow.HitBytes {
		t.Errorf("greedy HitBytes %d > flow %d", greedy.HitBytes, flow.HitBytes)
	}
	if greedy.HitBytes <= 0 {
		t.Error("greedy cached nothing")
	}
	checkFeasible(t, tr, greedy.Admit, 4)
}

// checkFeasible replays an admission schedule and asserts cache occupancy
// never exceeds capacity at any time step.
func checkFeasible(t *testing.T, tr *trace.Trace, admit []bool, capacity int64) {
	t.Helper()
	next := tr.NextRequestIndex()
	occ := newSegTree(tr.Len())
	for i, a := range admit {
		if !a {
			continue
		}
		if next[i] < 0 {
			t.Errorf("Admit[%d] set but object has no next request", i)
			continue
		}
		occ.Add(i, next[i], tr.Requests[i].Size)
	}
	if got := occ.Max(0, tr.Len()); got > capacity {
		t.Errorf("schedule occupancy %d exceeds capacity %d", got, capacity)
	}
}

// TestFlowScheduleFeasible: admitted intervals from the exact labeler fit
// within the cache at every time step.
func TestFlowScheduleFeasible(t *testing.T) {
	cfg := gen.CDNMix(3000, 17)
	tr, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	const capacity = 64 << 20
	res, err := Compute(tr, Config{CacheSize: capacity, Algorithm: AlgoFlow})
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, tr, res.Admit, capacity)
	if res.Hits == 0 {
		t.Error("flow OPT produced no hits on CDN mix")
	}
}

// TestFlowMatchesBeladyUnitSizes: with unit object sizes the flow LP is
// integral and its hit count equals Belady's, which is provably optimal.
func TestFlowMatchesBeladyUnitSizes(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		tr, err := gen.Generate(gen.UnitMix(2000, seed, 128, 0.9))
		if err != nil {
			t.Fatal(err)
		}
		tr = tr.WithCosts(trace.ObjectiveOHR)
		const capacity = 16 // 16 unit-size objects
		flow, err := Compute(tr, Config{CacheSize: capacity, Algorithm: AlgoFlow})
		if err != nil {
			t.Fatal(err)
		}
		bel := Belady(tr, capacity)
		if flow.Hits != bel.Hits {
			t.Errorf("seed %d: flow hits %d != belady hits %d", seed, flow.Hits, bel.Hits)
		}
	}
}

// TestGreedyNeverBeatsBelady on unit-size traces.
func TestGreedyNeverBeatsBelady(t *testing.T) {
	tr, err := gen.Generate(gen.UnitMix(3000, 7, 200, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveOHR)
	const capacity = 20
	greedy, err := Compute(tr, Config{CacheSize: capacity, Algorithm: AlgoGreedy})
	if err != nil {
		t.Fatal(err)
	}
	bel := Belady(tr, capacity)
	if greedy.Hits > bel.Hits {
		t.Errorf("greedy hits %d > belady %d", greedy.Hits, bel.Hits)
	}
}

// TestBeladySmall verifies Belady on a hand-checked sequence.
func TestBeladySmall(t *testing.T) {
	// Capacity 2 objects, unit sizes, trace 1 2 3 1 2 3.
	// Bypass-capable MIN: miss 1, miss 2; at request 3 the next uses are
	// 1->idx3, 2->idx4, 3->idx5, so 3 itself is furthest and is bypassed.
	// Requests 1 (idx 3) and 2 (idx 4) then hit; the final 3 misses.
	// Two hits is optimal (no schedule achieves three).
	ids := []trace.ObjectID{1, 2, 3, 1, 2, 3}
	tr := &trace.Trace{}
	for i, id := range ids {
		tr.Requests = append(tr.Requests, trace.Request{Time: int64(i), ID: id, Size: 1, Cost: 1})
	}
	res := Belady(tr, 2)
	if res.Hits != 2 {
		t.Errorf("Belady hits = %d, want 2", res.Hits)
	}
	if !res.Hit[3] || !res.Hit[4] {
		t.Errorf("Hit = %v, want hits at 3 and 4", res.Hit)
	}
	if res.Intervals != 3 || res.DroppedIntervals() != 0 {
		t.Errorf("%d intervals, %d dropped; want 3 and none (Belady drops nothing by rank)", res.Intervals, res.DroppedIntervals())
	}
}

// TestBeladyAdmitConsistent: Admit[i] implies Hit[next[i]].
func TestBeladyAdmitConsistent(t *testing.T) {
	tr, err := gen.Generate(gen.UnitMix(2000, 11, 100, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveOHR)
	res := Belady(tr, 10)
	next := tr.NextRequestIndex()
	for i, a := range res.Admit {
		if a && (next[i] < 0 || !res.Hit[next[i]]) {
			t.Fatalf("Admit[%d] set but next request not a hit", i)
		}
	}
}

// TestBeladyObjectLargerThanCache never admits oversized objects.
func TestBeladyObjectLargerThanCache(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{
		{Time: 0, ID: 1, Size: 100, Cost: 100},
		{Time: 1, ID: 1, Size: 100, Cost: 100},
	}}
	res := Belady(tr, 10)
	if res.Hits != 0 {
		t.Errorf("oversized object hit %d times", res.Hits)
	}
}

// TestRankFractionReducesWork: a smaller rank fraction must shrink the
// solved interval count while keeping decisions a subset of intervals.
func TestRankFractionReducesWork(t *testing.T) {
	tr, err := gen.Generate(gen.CDNMix(4000, 5))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	full, err := Compute(tr, Config{CacheSize: 32 << 20, Algorithm: AlgoFlow})
	if err != nil {
		t.Fatal(err)
	}
	half, err := Compute(tr, Config{CacheSize: 32 << 20, Algorithm: AlgoFlow, RankFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if half.Solved >= full.Solved {
		t.Errorf("RankFraction=0.3 solved %d >= full %d", half.Solved, full.Solved)
	}
	if half.Intervals != full.Intervals {
		t.Errorf("interval counts differ: %d vs %d", half.Intervals, full.Intervals)
	}
	tiny, err := Compute(tr, Config{CacheSize: 32 << 20, RankFraction: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Solved != 1 {
		t.Errorf("RankFraction=1e-9 solved %d intervals, want the top one", tiny.Solved)
	}
	// The approximation should retain most of the achievable hit bytes
	// (the rank prioritizes high-value intervals).
	if float64(half.HitBytes) < 0.5*float64(full.HitBytes) {
		t.Errorf("ranked approximation lost too much: %d vs %d hit bytes", half.HitBytes, full.HitBytes)
	}
}

// TestRankFractionRange: a RankFraction outside [0, 1] is an error, not
// silently a full solve (NaN would otherwise reach selectByRank and keep
// one interval); 0 keeps meaning 1.
func TestRankFractionRange(t *testing.T) {
	tr := paperTrace(trace.ObjectiveBHR)
	full, err := Compute(tr, Config{CacheSize: 4, RankFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		fraction float64
		ok       bool
	}{{-0.5, false}, {1.5, false}, {math.NaN(), false}, {0, true}, {1, true}} {
		res, err := Compute(tr, Config{CacheSize: 4, RankFraction: c.fraction})
		switch {
		case !c.ok && err == nil:
			t.Errorf("RankFraction %v: no error", c.fraction)
		case c.ok && err != nil:
			t.Errorf("RankFraction %v: %v", c.fraction, err)
		case c.ok && (res.Solved != full.Solved || res.HitBytes != full.HitBytes):
			t.Errorf("RankFraction %v solved %d for %d hit bytes, want the full solve's %d for %d",
				c.fraction, res.Solved, res.HitBytes, full.Solved, full.HitBytes)
		}
	}
}

// TestLargerCacheNeverHurts: OPT hit bytes are monotone in cache size.
func TestLargerCacheNeverHurts(t *testing.T) {
	tr, err := gen.Generate(gen.WebMix(3000, 23))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	var prevHits int64 = -1
	for _, size := range []int64{1 << 18, 1 << 20, 4 << 20, 16 << 20} {
		res, err := Compute(tr, Config{CacheSize: size, Algorithm: AlgoFlow})
		if err != nil {
			t.Fatal(err)
		}
		if res.HitBytes < prevHits {
			t.Errorf("cache %d: HitBytes %d < smaller cache %d", size, res.HitBytes, prevHits)
		}
		prevHits = res.HitBytes
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, tc := range []struct {
		a    Algorithm
		want string
	}{{AlgoFlow, "flow"}, {AlgoGreedy, "greedy"}, {Algorithm(2), "algorithm(2)"}} {
		if got := tc.a.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestAlgoLabel(t *testing.T) {
	for _, tc := range []struct {
		exact, greedy int
		want          string
	}{
		{0, 0, "none"},
		{5, 0, "sweep"},
		{0, 2, "greedy"},
	} {
		r := &Result{FlowIntervals: tc.exact, GreedyIntervals: tc.greedy}
		if got := r.AlgoLabel(); got != tc.want {
			t.Errorf("%d exact, %d greedy: AlgoLabel %q, want %q", tc.exact, tc.greedy, got, tc.want)
		}
	}
}

func TestSegTree(t *testing.T) {
	st := newSegTree(10)
	st.Add(0, 5, 3)
	st.Add(3, 8, 2)
	if got := st.Max(0, 10); got != 5 {
		t.Errorf("Max(0,10) = %d, want 5", got)
	}
	if got := st.Max(0, 3); got != 3 {
		t.Errorf("Max(0,3) = %d, want 3", got)
	}
	if got := st.Max(5, 8); got != 2 {
		t.Errorf("Max(5,8) = %d, want 2", got)
	}
	if got := st.Max(8, 10); got != 0 {
		t.Errorf("Max(8,10) = %d, want 0", got)
	}
	st.Add(4, 5, -3)
	if got := st.Max(4, 5); got != 2 {
		t.Errorf("after negative add, Max(4,5) = %d, want 2", got)
	}
}

// TestSegTreeMatchesBruteForce random cross-check against a plain array.
func TestSegTreeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 64
	st := newSegTree(n)
	ref := make([]int64, n)
	for op := 0; op < 2000; op++ {
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo) + 1
		if rng.Intn(2) == 0 {
			v := int64(rng.Intn(21) - 10)
			st.Add(lo, hi, v)
			for i := lo; i < hi; i++ {
				ref[i] += v
			}
		} else {
			want := int64(-1 << 63)
			for i := lo; i < hi; i++ {
				if ref[i] > want {
					want = ref[i]
				}
			}
			if got := st.Max(lo, hi); got != want {
				t.Fatalf("op %d: Max(%d,%d) = %d, want %d", op, lo, hi, got, want)
			}
		}
	}
}

func TestSegTreeEmptyRange(t *testing.T) {
	st := newSegTree(5)
	if got := st.Max(3, 3); got != -1<<63 {
		t.Errorf("Max(empty) = %d, want MinInt64", got)
	}
	st.Add(4, 2, 10) // no-op
	if got := st.Max(0, 5); got != 0 {
		t.Errorf("Max after no-op add = %d, want 0", got)
	}
	st.Add(-2, 99, 1) // clamped to [0, 5)
	if got := st.Max(-5, 50); got != 1 {
		t.Errorf("Max after clamped add = %d, want 1", got)
	}
	if one := newSegTree(0); one.n != 1 {
		t.Errorf("newSegTree(0) has %d slots, want 1", one.n)
	}
}

// TestCostScaleInsensitive: for BHR costs the per-byte cost is uniform,
// so neither the flow's optimum (in bytes missed) nor the intervals it
// routes entirely through the cache may depend on the fixed-point scale
// that buildFlowGraph hands quantiseCosts.
func TestCostScaleInsensitive(t *testing.T) {
	tr := paperTrace(trace.ObjectiveBHR)
	var prevMissed int64 = -1
	var prevCached []bool
	for _, scale := range []int64{64, costScale, 1 << 20} {
		ivs, f, cost := wholeWindowFlow(t, tr, 4, scale)
		if cost%scale != 0 {
			t.Fatalf("scale %d: flow cost %d is not a whole number of bytes", scale, cost)
		}
		cached := make([]bool, len(ivs))
		for k := range ivs {
			cached[k] = f.g.Flow(f.bypass[k]) == 0
		}
		if prevMissed >= 0 && (cost/scale != prevMissed || !reflect.DeepEqual(cached, prevCached)) {
			t.Errorf("scale %d: %d bytes missed, cached %v; want %d, %v", scale, cost/scale, cached, prevMissed, prevCached)
		}
		prevMissed, prevCached = cost/scale, cached
	}
}

// TestGreedyOHRObjective: greedy under OHR costs favors many small
// intervals over few large ones.
func TestGreedyOHRObjective(t *testing.T) {
	tr, err := gen.Generate(gen.CDNMix(4000, 3))
	if err != nil {
		t.Fatal(err)
	}
	bhr, err := Compute(tr.WithCosts(trace.ObjectiveBHR), Config{CacheSize: 16 << 20, Algorithm: AlgoGreedy})
	if err != nil {
		t.Fatal(err)
	}
	ohr, err := Compute(tr.WithCosts(trace.ObjectiveOHR), Config{CacheSize: 16 << 20, Algorithm: AlgoGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if ohr.OHR() < bhr.OHR() {
		t.Errorf("OHR-objective OHR %.4f < BHR-objective OHR %.4f", ohr.OHR(), bhr.OHR())
	}
	if bhr.BHR() < ohr.BHR() {
		t.Errorf("BHR-objective BHR %.4f < OHR-objective BHR %.4f", bhr.BHR(), ohr.BHR())
	}
}
