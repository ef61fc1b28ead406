package opt

import (
	"reflect"
	"sort"
	"testing"

	"lfo/internal/gen"
	"lfo/internal/trace"
)

// phaseTrace concatenates independently generated traces with disjoint
// object ID spaces. Nothing crosses a phase boundary, so the minimum
// interval-crossing cut points coincide with the phase joins and the
// segmented solve decomposes exactly.
func phaseTrace(t *testing.T, cfgs []gen.Config, obj trace.Objective) *trace.Trace {
	t.Helper()
	out := &trace.Trace{}
	for p, cfg := range cfgs {
		sub, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sub.Requests {
			// Bits 58+ are unused by gen's ID layout (8-bit class values
			// stay tiny); tagging them keeps phase ID spaces disjoint.
			r.ID |= trace.ObjectID(uint64(p+1) << 58)
			r.Time = int64(len(out.Requests))
			out.Requests = append(out.Requests, r)
		}
	}
	return out.WithCosts(obj)
}

// TestSegmentedFlowMatchesUnsegmented: the Figure 3 paper trace repeated
// with disjoint IDs per phase. No interval crosses a phase join, so the
// cuts land at zero-crossing points and the per-segment flow solves must
// reproduce the unsegmented AlgoFlow schedule admit for admit. (Generic
// traces under BHR have many optima; the sweep picks one by the order of
// ends, which no cut changes, but the paper trace's optimum is also
// pinned by the hand-verified hit set.)
func TestSegmentedFlowMatchesUnsegmented(t *testing.T) {
	const phases = 5
	ids := []trace.ObjectID{1, 2, 3, 2, 4, 1, 3, 4, 1, 2, 2, 1}
	sizes := map[trace.ObjectID]int64{1: 3, 2: 1, 3: 1, 4: 2}
	tr := &trace.Trace{}
	for p := 0; p < phases; p++ {
		for _, id := range ids {
			tr.Requests = append(tr.Requests, trace.Request{
				Time: int64(len(tr.Requests)),
				ID:   id + trace.ObjectID(10*p),
				Size: sizes[id],
			})
		}
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)

	whole, err := Compute(tr, Config{CacheSize: 4, Algorithm: AlgoFlow, Segments: 1})
	if err != nil {
		t.Fatal(err)
	}
	if whole.Segments != 1 || whole.AlgoLabel() != "sweep" {
		t.Fatalf("unsegmented solve: got %d segments labeled by %s", whole.Segments, whole.AlgoLabel())
	}
	seg, err := Compute(tr, Config{CacheSize: 4, Algorithm: AlgoFlow, Segments: phases})
	if err != nil {
		t.Fatal(err)
	}
	if seg.Segments < 2 {
		t.Fatalf("segmented solve used %d segments, want >= 2", seg.Segments)
	}
	if seg.BoundaryIntervals != 0 {
		t.Errorf("phase trace produced %d boundary intervals, want 0", seg.BoundaryIntervals)
	}
	for i := range whole.Admit {
		if whole.Admit[i] != seg.Admit[i] {
			t.Fatalf("Admit[%d]: unsegmented %v, segmented %v", i, whole.Admit[i], seg.Admit[i])
		}
	}
	// Per-phase OPT is the hand-verified 12 hit bytes (TestFlowPaperExampleBHR).
	if seg.HitBytes != 12*phases {
		t.Errorf("segmented HitBytes = %d, want %d", seg.HitBytes, 12*phases)
	}
	checkFeasible(t, tr, seg.Admit, 4)
}

// TestSegmentedMatchesBeladyUnitSizes: with unit sizes the flow hit count
// equals Belady's provably optimal one (TestFlowMatchesBeladyUnitSizes);
// on a phase-structured trace the segmented solve decomposes exactly, so
// its total must still match Belady on the concatenated trace.
func TestSegmentedMatchesBeladyUnitSizes(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfgs := []gen.Config{
			gen.UnitMix(1000, seed, 128, 0.9),
			gen.UnitMix(1000, seed+100, 128, 0.9),
			gen.UnitMix(1000, seed+200, 128, 0.9),
		}
		tr := phaseTrace(t, cfgs, trace.ObjectiveOHR)
		const capacity = 16
		seg, err := Compute(tr, Config{CacheSize: capacity, Algorithm: AlgoFlow, Segments: len(cfgs)})
		if err != nil {
			t.Fatal(err)
		}
		if seg.Segments < 2 {
			t.Fatalf("seed %d: segmented solve used %d segments, want >= 2", seed, seg.Segments)
		}
		if seg.BoundaryIntervals != 0 {
			t.Fatalf("seed %d: %d boundary intervals on a phase trace, want 0", seed, seg.BoundaryIntervals)
		}
		bel := Belady(tr, capacity)
		if seg.Hits != bel.Hits {
			t.Errorf("seed %d: segmented hits %d != belady hits %d", seed, seg.Hits, bel.Hits)
		}
	}
}

// TestSegmentedNeverBeatsBelady: on generic unit-size traces the stitched
// segmented schedule is feasible, so it can never exceed Belady's optimum.
func TestSegmentedNeverBeatsBelady(t *testing.T) {
	tr, err := gen.Generate(gen.UnitMix(3000, 7, 200, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveOHR)
	const capacity = 20
	seg, err := Compute(tr, Config{CacheSize: capacity, Algorithm: AlgoFlow, Segments: 5})
	if err != nil {
		t.Fatal(err)
	}
	bel := Belady(tr, capacity)
	if seg.Hits > bel.Hits {
		t.Errorf("segmented hits %d > belady %d", seg.Hits, bel.Hits)
	}
	checkFeasible(t, tr, seg.Admit, capacity)
}

// TestOPTDeterministicAcrossWorkers: the full Result must be byte-identical
// for every Workers value, for segmented flow solves and for the greedy
// pass alike.
func TestOPTDeterministicAcrossWorkers(t *testing.T) {
	tr, err := gen.Generate(gen.CDNMix(6000, 19))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	cases := []struct {
		name     string
		cfg      Config
		segments int // want exactly this many segments; 0 means >= 2
	}{
		// The zero-value algorithm: the segmented flow.
		{"auto-fallback", Config{CacheSize: 8 << 20, Segments: 3}, 0},
		{"flow-seg4", Config{CacheSize: 8 << 20, Algorithm: AlgoFlow, Segments: 4}, 0},
		{"flow-seg9", Config{CacheSize: 8 << 20, Algorithm: AlgoFlow, Segments: 9}, 0},
		// Segments applies to the flow only: the greedy is one pass.
		{"greedy-seg2", Config{CacheSize: 8 << 20, Algorithm: AlgoGreedy, Segments: 2}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var base *Result
			for _, workers := range []int{1, 2, 0} {
				cfg := tc.cfg
				cfg.Workers = workers
				res, err := Compute(tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = res
					switch {
					case tc.segments == 0 && res.Segments < 2:
						t.Fatalf("want >= 2 segments to exercise the parallel path, got %d", res.Segments)
					case tc.segments > 0 && res.Segments != tc.segments:
						t.Fatalf("want %d segments, got %d", tc.segments, res.Segments)
					}
					continue
				}
				if !reflect.DeepEqual(base, res) {
					t.Fatalf("workers=%d: Result differs from workers=1", workers)
				}
			}
		})
	}
}

// TestGreedyFallbackRecorded: AlgoGreedy labels in one pass, whatever
// Segments asks for, and says so in the stats.
func TestGreedyFallbackRecorded(t *testing.T) {
	tr, err := gen.Generate(gen.CDNMix(2000, 31))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	res, err := Compute(tr, Config{CacheSize: 8 << 20, Algorithm: AlgoGreedy, Segments: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 1 || res.BoundaryIntervals != 0 {
		t.Errorf("want 1 segment and no boundary, got %d / %d", res.Segments, res.BoundaryIntervals)
	}
	if res.GreedyIntervals != res.Solved || res.FlowIntervals != 0 {
		t.Errorf("want all %d solved intervals greedy, got %d greedy / %d flow",
			res.Solved, res.GreedyIntervals, res.FlowIntervals)
	}
	if got := res.AlgoLabel(); got != "greedy" {
		t.Errorf("AlgoLabel = %q, want greedy", got)
	}
}

// TestGreedyMatchesArrayScan: the greedy's Admit equals a plain reference
// that sorts the intervals by rank (descending, from ascending on ties)
// and admits one iff the largest occupancy over [from, to) plus its size
// is at most the capacity — on a CDN-mix window above autoFlowLimit, which
// the greedy must not segment, and on a unit-size window, where
// admissions land exactly on the capacity.
func TestGreedyMatchesArrayScan(t *testing.T) {
	cdn, err := gen.Generate(gen.CDNMix(40000, 3))
	if err != nil {
		t.Fatal(err)
	}
	unit, err := gen.Generate(gen.UnitMix(3000, 7, 200, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tr       *trace.Trace
		capacity int64
	}{{cdn, 64 << 20}, {unit.WithCosts(trace.ObjectiveOHR), 20}} {
		res, err := Compute(c.tr, Config{CacheSize: c.capacity, Algorithm: AlgoGreedy})
		if err != nil {
			t.Fatal(err)
		}
		if c.tr == cdn && res.Intervals <= autoFlowLimit {
			t.Fatalf("%d intervals: the window does not exceed autoFlowLimit", res.Intervals)
		}
		want := arrayScanGreedy(c.tr, c.capacity)
		for i := range want {
			if res.Admit[i] != want[i] {
				t.Fatalf("%d requests: Admit[%d] = %v, reference %v", c.tr.Len(), i, res.Admit[i], want[i])
			}
		}
	}
}

// arrayScanGreedy is the greedy labeler written as plainly as possible:
// per-request occupancy in an array, scanned for every interval.
func arrayScanGreedy(tr *trace.Trace, capacity int64) []bool {
	next := tr.NextRequestIndex()
	var from []int
	rank := make([]float64, tr.Len())
	for i, r := range tr.Requests {
		if j := next[i]; j >= 0 {
			from = append(from, i)
			rank[i] = tr.Requests[j].Cost / (float64(r.Size) * float64(j-i))
		}
	}
	sort.Slice(from, func(a, b int) bool {
		if rank[from[a]] != rank[from[b]] {
			return rank[from[a]] > rank[from[b]]
		}
		return from[a] < from[b]
	})
	occ := make([]int64, tr.Len())
	admit := make([]bool, tr.Len())
	for _, i := range from {
		size, peak := tr.Requests[i].Size, int64(0)
		for s := i; s < next[i]; s++ {
			peak = max(peak, occ[s])
		}
		if peak+size > capacity {
			continue
		}
		for s := i; s < next[i]; s++ {
			occ[s] += size
		}
		admit[i] = true
	}
	return admit
}

// TestIntervalAccounting: flow + greedy interval counts partition the
// solved set, and boundary intervals are included in the greedy count.
func TestIntervalAccounting(t *testing.T) {
	tr, err := gen.Generate(gen.CDNMix(5000, 7))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	res, err := Compute(tr, Config{
		CacheSize: 8 << 20, Algorithm: AlgoFlow,
		Segments: 6, RankFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.FlowIntervals + res.GreedyIntervals; got != res.Solved {
		t.Errorf("FlowIntervals+GreedyIntervals = %d, want Solved = %d", got, res.Solved)
	}
	if res.SweepIntervals != res.FlowIntervals {
		t.Errorf("SweepIntervals = %d of %d exact BHR intervals", res.SweepIntervals, res.FlowIntervals)
	}
	if res.GreedyIntervals < res.BoundaryIntervals {
		t.Errorf("GreedyIntervals %d < BoundaryIntervals %d", res.GreedyIntervals, res.BoundaryIntervals)
	}
	if got := res.DroppedIntervals(); got != res.Intervals-res.Solved {
		t.Errorf("DroppedIntervals = %d, want %d", got, res.Intervals-res.Solved)
	}
	checkFeasible(t, tr, res.Admit, 8<<20)
}

// TestSegmentedFeasibleWithBoundaries: a generic (non-phase) trace forces
// boundary stitching; the combined schedule must still respect capacity at
// every time step.
func TestSegmentedFeasibleWithBoundaries(t *testing.T) {
	tr, err := gen.Generate(gen.CDNMix(6000, 3))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	const capacity = 4 << 20
	res, err := Compute(tr, Config{CacheSize: capacity, Algorithm: AlgoFlow, Segments: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundaryIntervals == 0 {
		t.Log("note: no boundary intervals on this trace; cut points were all zero-crossing")
	}
	checkFeasible(t, tr, res.Admit, capacity)
	if res.Hits == 0 {
		t.Error("segmented solve produced no hits")
	}
}

// TestSegmentedCloseToUnsegmented: on a generic trace segmentation is an
// approximation, but the stitched schedule should stay within a small
// margin of the whole-window flow optimum.
func TestSegmentedCloseToUnsegmented(t *testing.T) {
	tr, err := gen.Generate(gen.CDNMix(5000, 13))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	const capacity = 16 << 20
	whole, err := Compute(tr, Config{CacheSize: capacity, Algorithm: AlgoFlow, Segments: 1})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := Compute(tr, Config{CacheSize: capacity, Algorithm: AlgoFlow, Segments: 6})
	if err != nil {
		t.Fatal(err)
	}
	if seg.HitBytes > whole.HitBytes {
		// Segmentation can only remove options from the flow, modulo the
		// greedy repair; beating the whole-window solve would indicate an
		// infeasible schedule.
		checkFeasible(t, tr, seg.Admit, capacity)
	}
	lo := float64(whole.HitBytes) * 0.95
	if float64(seg.HitBytes) < lo {
		t.Errorf("segmented HitBytes %d below 95%% of unsegmented %d", seg.HitBytes, whole.HitBytes)
	}
}
