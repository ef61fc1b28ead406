package opt

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"lfo/internal/gen"
	"lfo/internal/obs"
	"lfo/internal/trace"
)

// TestQuantiseCostsBHRUniform: under BHR every interval's per-byte cost is
// exactly 1, so every bypass arc costs exactly costScale — the graphs the
// flow solver sees for BHR windows do not depend on how the scale is
// chosen per segment.
func TestQuantiseCostsBHRUniform(t *testing.T) {
	ivs := buildIntervals(cdnWindows(t, 1, 7000, 7)[0])
	for _, costScale := range []int64{64, 1024, 1 << 20} {
		costs, scale := quantiseCosts(ivs, costScale, nil)
		if len(costs) != len(ivs) || scale != float64(costScale) {
			t.Fatalf("costScale %d: %d costs for %d intervals at scale %v", costScale, len(costs), len(ivs), scale)
		}
		for k, c := range costs {
			if c != costScale {
				t.Fatalf("costScale %d: interval %d costs %d per byte", costScale, k, c)
			}
		}
	}
}

// TestQuantiseCosts pins the helper's contract on hand-made intervals:
// ratios survive, the cheapest positive cost lands on costScale, a zero
// cost is floored at 1, the buffer is reused, and absurd costs are scaled
// down until neither the flow's total cost nor a potential can overflow.
func TestQuantiseCosts(t *testing.T) {
	ivs := []interval{
		{from: 0, to: 4, size: 1000, cost: 1}, // 0.001 per byte
		{from: 1, to: 5, size: 500, cost: 1},  // 0.002
		{from: 2, to: 6, size: 250, cost: 1},  // 0.004
		{from: 3, to: 7, size: 300, cost: 1},  // 0.00333…
		{from: 8, to: 9, size: 10, cost: 0},
	}
	buf := make([]int64, 0, 16)
	costs, scale := quantiseCosts(ivs, 1024, buf)
	want := []int64{1024, 2048, 4096, 3413, 1}
	for k := range want {
		if costs[k] != want[k] {
			t.Errorf("interval %d: cost %d, want %d", k, costs[k], want[k])
		}
	}
	if scale != 1024*1000 {
		t.Errorf("scale %v, want %v", scale, 1024*1000)
	}
	if &costs[0] != &buf[:1][0] {
		t.Error("a large enough buffer was not reused")
	}

	huge := []interval{
		{from: 0, to: 2, size: 1 << 40, cost: 1},
		{from: 1, to: 3, size: 1, cost: 1e30},
		{from: 4, to: 5, size: 1 << 30, cost: 1e25},
	}
	costs, _ = quantiseCosts(huge, 1024, nil)
	total, worst := 0.0, int64(0)
	for k, c := range costs {
		if c < 1 {
			t.Errorf("interval %d: cost %d", k, c)
		}
		total += float64(c) * float64(huge[k].size)
		if c > worst {
			worst = c
		}
	}
	if total >= maxFlowCost || float64(worst)*float64(2*len(huge)+2) >= maxFlowCost {
		t.Errorf("total cost %g, largest cost %d: not below 2^62", total, worst)
	}
	if costs[1] <= costs[2] || costs[2] <= costs[0] {
		t.Errorf("capped costs %v lost their order", costs)
	}
}

// TestFlowOHRObjective is the flow twin of TestGreedyOHRObjective: labels
// from the flow under OHR costs must reach at least the OHR of labels from
// the flow under BHR costs (and the other way round for BHR), which
// requires the solver to actually see per-object costs: more than a
// hundred distinct integer prices on this window, where one global scale
// handed it two.
func TestFlowOHRObjective(t *testing.T) {
	tr, err := gen.Generate(gen.CDNMix(4000, 3))
	if err != nil {
		t.Fatal(err)
	}
	bhr, err := Compute(tr.WithCosts(trace.ObjectiveBHR), Config{CacheSize: 16 << 20, Algorithm: AlgoFlow})
	if err != nil {
		t.Fatal(err)
	}
	ohr, err := Compute(tr.WithCosts(trace.ObjectiveOHR), Config{CacheSize: 16 << 20, Algorithm: AlgoFlow})
	if err != nil {
		t.Fatal(err)
	}
	if ohr.OHR() < bhr.OHR() {
		t.Errorf("OHR-objective OHR %.4f < BHR-objective OHR %.4f", ohr.OHR(), bhr.OHR())
	}
	if bhr.BHR() < ohr.BHR() {
		t.Errorf("BHR-objective BHR %.4f < OHR-objective BHR %.4f", bhr.BHR(), ohr.BHR())
	}
	costs, _ := quantiseCosts(buildIntervals(tr.WithCosts(trace.ObjectiveOHR)), 1024, nil)
	distinct := map[int64]bool{}
	for _, c := range costs {
		distinct[c] = true
	}
	if len(distinct) <= 100 {
		t.Errorf("the OHR window hands the solver %d distinct costs, want > 100", len(distinct))
	}
	t.Logf("OHR costs: %d distinct prices, %d potential moves; BHR costs labelled by %s",
		len(distinct), ohr.FlowPotentialMoves, bhr.AlgoLabel())
}

// TestFlowCounters pins which exact solver labels the benchmark's
// default_flow window (7000 CDN-mix requests, seed 7, 64 MiB) and the
// work counters it reports. Under OHR costs the per-byte prices differ,
// so the min-cost flow solves it: paths, passes and potential moves are
// counted, and add up over segments. Under BHR costs the sweep labels
// every solved interval and the flow does no work. The counters reach the
// registry, and greedy labels count no flow work.
func TestFlowCounters(t *testing.T) {
	base := cdnWindows(t, 1, 7000, 7)[0]
	counters := func(t *testing.T, reg *obs.Registry, want map[string]int) {
		t.Helper()
		for name, want := range want {
			if got := reg.Counter(name).Value(); got != int64(want) {
				t.Errorf("%s = %d, want %d", name, got, want)
			}
		}
	}

	t.Run("ohr", func(t *testing.T) {
		tr := base.WithCosts(trace.ObjectiveOHR)
		reg := obs.NewRegistry()
		res, err := Compute(tr, Config{CacheSize: 64 << 20, Workers: 1, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		if res.AlgoLabel() != "flow" || res.Segments != 1 || res.SweepIntervals != 0 {
			t.Fatalf("labels by %s in %d segments, %d swept, want one flow solve", res.AlgoLabel(), res.Segments, res.SweepIntervals)
		}
		if res.FlowAugmentations < 1 || res.FlowPasses < 1 || res.FlowPotentialMoves < 1 {
			t.Errorf("flow work: %d paths in %d passes, %d potential moves", res.FlowAugmentations, res.FlowPasses, res.FlowPotentialMoves)
		}
		counters(t, reg, map[string]int{
			"opt_flow_intervals_total":       res.Solved,
			"opt_sweep_intervals_total":      0,
			"opt_flow_augmentations_total":   res.FlowAugmentations,
			"opt_flow_passes_total":          res.FlowPasses,
			"opt_flow_potential_moves_total": res.FlowPotentialMoves,
		})
		split, err := Compute(tr, Config{CacheSize: 64 << 20, Algorithm: AlgoFlow, Segments: 3})
		if err != nil {
			t.Fatal(err)
		}
		if split.Segments < 2 || split.FlowPotentialMoves < split.Segments {
			t.Errorf("%d flow segments moved the potentials %d times in all", split.Segments, split.FlowPotentialMoves)
		}
	})

	t.Run("bhr", func(t *testing.T) {
		reg := obs.NewRegistry()
		res, err := Compute(base, Config{CacheSize: 64 << 20, Workers: 1, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		if res.AlgoLabel() != "sweep" || res.Segments != 1 || res.SweepIntervals != res.Solved {
			t.Fatalf("labels by %s in %d segments, %d of %d swept, want one sweep", res.AlgoLabel(), res.Segments, res.SweepIntervals, res.Solved)
		}
		counters(t, reg, map[string]int{
			"opt_flow_intervals_total":       res.Solved,
			"opt_sweep_intervals_total":      res.Solved,
			"opt_flow_augmentations_total":   0,
			"opt_flow_passes_total":          0,
			"opt_flow_potential_moves_total": 0,
		})
		greedy, err := Compute(base, Config{CacheSize: 64 << 20, Algorithm: AlgoGreedy})
		if err != nil {
			t.Fatal(err)
		}
		if greedy.FlowAugmentations != 0 || greedy.FlowPasses != 0 || greedy.FlowPotentialMoves != 0 || greedy.SweepIntervals != 0 {
			t.Errorf("greedy labels counted exact work: %+v", greedy)
		}
	})
}

// bruteForceMissCost is exhaustive OPT for a tiny trace with variable
// object sizes: over every subset of the reuse intervals that fits the
// cache at every time step (an admitted interval holds its bytes from its
// request up to, not including, the object's next request — checkFeasible's
// reading), the least summed cost of the requests that still miss.
func bruteForceMissCost(tr *trace.Trace, capacity int64) float64 {
	next := tr.NextRequestIndex()
	var ivs []int
	all := 0.0
	for i, r := range tr.Requests {
		all += r.Cost
		if next[i] >= 0 {
			ivs = append(ivs, i)
		}
	}
	best := math.Inf(1)
	occ := make([]int64, tr.Len())
	for set := 0; set < 1<<len(ivs); set++ {
		for i := range occ {
			occ[i] = 0
		}
		saved, fits := 0.0, true
		for k, i := range ivs {
			if set>>k&1 == 0 {
				continue
			}
			saved += tr.Requests[next[i]].Cost
			for s := i; s < next[i]; s++ {
				if occ[s] += tr.Requests[i].Size; occ[s] > capacity {
					fits = false
				}
			}
		}
		if fits && all-saved < best {
			best = all - saved
		}
	}
	return best
}

// wholeWindowFlow builds the unsegmented FOO graph of the whole trace with
// the cheapest per-byte cost quantised to scale, solves it, and returns the
// from-sorted intervals, the solved scratch (bypass arcs in sc.bypass) and
// the flow's integer cost; nothing is solved for a trace without intervals.
func wholeWindowFlow(t *testing.T, tr *trace.Trace, capacity, scale int64) ([]interval, *solveScratch, int64) {
	t.Helper()
	ivs := buildIntervals(tr)
	if len(ivs) == 0 {
		return nil, nil, 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].from < ivs[b].from })
	sc := newSolveScratch()
	sc.occ.reset(tr.Len())
	buildFlowGraph(&segment{lo: 0, hi: tr.Len(), ivs: ivs}, capacity, scale, sc)
	cost, err := sc.solver.Solve(sc.g)
	if err != nil {
		t.Fatal(err)
	}
	return ivs, sc, cost
}

// flowLowerBound solves the unsegmented FOO flow of the whole trace and
// returns its optimum in cost units (the flow's integer cost divided by
// the quantisation scale, plus the compulsory misses the graph leaves
// out) together with the most the rounding of the arc costs can have
// added to it.
func flowLowerBound(t *testing.T, tr *trace.Trace, capacity int64) (bound, slack float64) {
	t.Helper()
	prev := tr.PrevRequestIndex()
	for j, r := range tr.Requests {
		if prev[j] < 0 {
			bound += r.Cost
		}
	}
	ivs, _, cost := wholeWindowFlow(t, tr, capacity, costScale)
	if len(ivs) == 0 {
		return bound, 0
	}
	_, scale := quantiseCosts(ivs, costScale, nil)
	for _, iv := range ivs {
		slack += 0.5 * float64(iv.size) / scale
	}
	return bound + float64(cost)/scale, slack
}

// TestLabelsAgainstBruteForce is the variable-size ground truth under the
// labeler, whatever solver sits below it: on tiny random traces (up to 12
// requests, sizes 1–4, capacity 2–6, BHR and unit costs) the flow's LP
// optimum is a lower bound on exhaustive OPT's miss cost, and every
// schedule the labeler extracts — unsegmented flow, flow forced into two
// segments, greedy — is feasible and misses at least what OPT misses.
func TestLabelsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tight := 0
	for trial := 0; trial < 400; trial++ {
		n := 4 + rng.Intn(9)
		objects := 2 + rng.Intn(4)
		sizes := make([]int64, objects)
		for o := range sizes {
			sizes[o] = int64(1 + rng.Intn(4))
		}
		base := &trace.Trace{}
		for i := 0; i < n; i++ {
			o := rng.Intn(objects)
			base.Requests = append(base.Requests, trace.Request{Time: int64(i), ID: trace.ObjectID(o + 1), Size: sizes[o]})
		}
		capacity := int64(2 + rng.Intn(5))
		for _, obj := range []trace.Objective{trace.ObjectiveBHR, trace.ObjectiveOHR} {
			tr := base.WithCosts(obj)
			brute := bruteForceMissCost(tr, capacity)
			lp, slack := flowLowerBound(t, tr, capacity)
			if lp > brute+slack+1e-9 {
				t.Fatalf("trial %d %v: flow optimum %.6f above exhaustive OPT %.6f\n%+v cap %d", trial, obj, lp, brute, tr.Requests, capacity)
			}
			for _, cfg := range []Config{
				{CacheSize: capacity, Algorithm: AlgoFlow},
				{CacheSize: capacity, Algorithm: AlgoFlow, Segments: 2},
				{CacheSize: capacity, Algorithm: AlgoGreedy},
			} {
				res, err := Compute(tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkFeasible(t, tr, res.Admit, capacity)
				if res.MissCost < brute-1e-9 {
					t.Fatalf("trial %d %v %v segments=%d: schedule misses %.6f, exhaustive OPT %.6f\n%+v cap %d",
						trial, obj, cfg.Algorithm, cfg.Segments, res.MissCost, brute, tr.Requests, capacity)
				}
				if cfg.Algorithm == AlgoFlow && cfg.Segments == 0 && res.MissCost < brute+1e-9 {
					tight++
				}
			}
		}
	}
	// Not a theorem (the extraction is all-or-nothing per interval), but
	// if the flow's schedule stopped reaching OPT on most tiny traces the
	// labels got worse.
	if tight < 700 {
		t.Errorf("flow labels reached exhaustive OPT on %d of 800 traces", tight)
	}
}
