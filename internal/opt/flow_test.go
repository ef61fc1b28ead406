package opt

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lfo/internal/gen"
	"lfo/internal/obs"
	"lfo/internal/trace"
)

// The FOO min-cost flow (Figure 4 of the paper) as the tests' oracle: the
// graph of a window, its integral arc costs, and the labels Compute read
// off the flow before the sweep and the greedy replaced it.

// costScale is what the cheapest per-byte miss cost of a window becomes
// in the flow solver's integral arc costs (see quantiseCosts).
const costScale = 1024

// maxFlowCost bounds both the total cost of a window's flow and the
// largest node potential the solver can reach, well inside int64.
const maxFlowCost = 1 << 62

// fooFlow is the FOO graph of one window: the graph, a solver for it,
// each interval's bypass arc and its integral per-byte cost.
type fooFlow struct {
	g      *Graph
	solver *Solver
	bypass []int
	costs  []int64
}

// buildFlowGraph builds the FOO graph of the intervals of a window,
// sorted by from, under a cache of capacity bytes, with the cheapest
// per-byte cost quantised to scale.
//
// The graph uses the per-interval formulation, which is equivalent to the
// paper's first-to-last-request formulation after supply cancellation at
// interior nodes: each interval injects size bytes at its start request and
// withdraws them at its end request; a bypass arc of capacity size and
// per-byte cost C/S (made integral by quantiseCosts) models a miss, while
// central arcs of zero cost and the cache's capacity model storing bytes
// in the cache. Only request indices that appear as interval endpoints
// become nodes (consecutive endpoints are joined by a single central arc),
// which keeps the graph small when rank selection drops intervals.
func buildFlowGraph(ivs []interval, capacity, scale int64) *fooFlow {
	var idx []int
	for _, iv := range ivs {
		idx = append(idx, iv.from, iv.to)
	}
	sort.Ints(idx)
	idx = slices.Compact(idx)

	f := &fooFlow{g: NewGraph(len(idx)), solver: NewSolver()}
	for k := 0; k+1 < len(idx); k++ {
		f.g.AddEdge(k, k+1, capacity, 0)
	}
	f.costs, _ = quantiseCosts(ivs, scale, nil)
	for k, iv := range ivs {
		u := sort.SearchInts(idx, iv.from)
		v := sort.SearchInts(idx, iv.to)
		f.bypass = append(f.bypass, f.g.AddEdge(u, v, iv.size, f.costs[k]))
		f.g.AddSupply(u, iv.size)
		f.g.AddSupply(v, -iv.size)
	}
	return f
}

// quantiseCosts turns the intervals' per-byte miss costs C/S into the
// integral arc costs the flow solver needs: one per interval in out[:0],
// each C/S times the returned scale, rounded. The scale is chosen per
// window: the smallest per-byte cost maps to costScale and the others
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
		out = append(out, max(int64(iv.cost/float64(iv.size)*scale+0.5), 1))
	}
	return out, scale
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

// wholeWindowFlow builds the FOO graph of the whole trace with the
// cheapest per-byte cost quantised to scale, solves it, and returns the
// from-sorted intervals, the solved flow and its integer cost; nothing is
// solved for a trace without intervals.
func wholeWindowFlow(t testing.TB, tr *trace.Trace, capacity, scale int64) ([]interval, *fooFlow, int64) {
	t.Helper()
	ivs := buildIntervals(tr)
	if len(ivs) == 0 {
		return nil, nil, 0
	}
	f := buildFlowGraph(ivs, capacity, scale)
	cost, err := f.solver.Solve(f.g)
	if err != nil {
		t.Fatal(err)
	}
	return ivs, f, cost
}

// flowLabels labels tr as Compute did while the min-cost flow labelled
// windows whose per-byte costs differ: an interval is admitted iff the
// flow routes none of its bytes over the bypass, and repair adds what
// that left out. It returns the admissions and the flow's work counters.
func flowLabels(t testing.TB, tr *trace.Trace, capacity int64) ([]bool, Stats) {
	t.Helper()
	admit := make([]bool, tr.Len())
	ivs, f, _ := wholeWindowFlow(t, tr, capacity, costScale)
	if len(ivs) == 0 {
		return admit, Stats{}
	}
	for k, iv := range ivs {
		admit[iv.from] = f.g.Flow(f.bypass[k]) == 0
	}
	repair(ivs, tr.Len(), capacity, admit)
	return admit, f.solver.Stats()
}

// scoreAdmit replays an admission schedule: the requests it hits and the
// bytes they carry.
func scoreAdmit(tr *trace.Trace, admit []bool) (hits int, hitBytes int64) {
	prev := tr.PrevRequestIndex()
	for j, r := range tr.Requests {
		if i := prev[j]; i >= 0 && admit[i] {
			hits++
			hitBytes += r.Size
		}
	}
	return hits, hitBytes
}

// TestQuantiseCostsBHRUniform: under BHR every interval's per-byte cost is
// exactly 1, so every bypass arc costs exactly costScale — the graphs the
// flow solver sees for BHR windows do not depend on how the scale is
// chosen per window.
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

// TestFlowOHRObjective is the oracle's twin of TestGreedyOHRObjective:
// the flow's labels under OHR costs must reach at least the OHR of its
// labels under BHR costs (and the other way round for BHR), which requires
// the solver to actually see per-object costs: more than a hundred
// distinct integer prices on this window, where one global scale handed
// it two.
func TestFlowOHRObjective(t *testing.T) {
	tr, err := gen.Generate(gen.CDNMix(4000, 3))
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 16 << 20
	bhrAdmit, _ := flowLabels(t, tr.WithCosts(trace.ObjectiveBHR), capacity)
	ohrAdmit, st := flowLabels(t, tr.WithCosts(trace.ObjectiveOHR), capacity)
	bhrHits, bhrBytes := scoreAdmit(tr, bhrAdmit)
	ohrHits, ohrBytes := scoreAdmit(tr, ohrAdmit)
	if ohrHits < bhrHits {
		t.Errorf("OHR-objective hits %d < BHR-objective hits %d", ohrHits, bhrHits)
	}
	if bhrBytes < ohrBytes {
		t.Errorf("BHR-objective hit bytes %d < OHR-objective hit bytes %d", bhrBytes, ohrBytes)
	}
	costs, _ := quantiseCosts(buildIntervals(tr.WithCosts(trace.ObjectiveOHR)), costScale, nil)
	distinct := map[int64]bool{}
	for _, c := range costs {
		distinct[c] = true
	}
	if len(distinct) <= 100 {
		t.Errorf("the OHR window hands the solver %d distinct costs, want > 100", len(distinct))
	}
	if st.PotentialMoves < 1 {
		t.Errorf("the OHR flow never moved its potentials: %+v", st)
	}
	t.Logf("OHR costs: %d distinct prices, %d potential moves", len(distinct), st.PotentialMoves)
}

// TestFlowCounters pins which solver labels the benchmark's default_flow
// window (7000 CDN-mix requests, seed 7, 64 MiB) and what reaches the
// registry. Under OHR costs the per-byte prices differ, so the greedy
// labels every solved interval; under BHR costs the sweep does. Either
// way the window is one piece.
func TestFlowCounters(t *testing.T) {
	base := cdnWindows(t, 1, 7000, 7)[0]
	for _, c := range []struct {
		name, label string
		obj         trace.Objective
	}{{"ohr", "greedy", trace.ObjectiveOHR}, {"bhr", "sweep", trace.ObjectiveBHR}} {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			res, err := Compute(base.WithCosts(c.obj), Config{CacheSize: 64 << 20, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			if res.AlgoLabel() != c.label || res.Segments != 1 {
				t.Fatalf("labels by %s in %d segments, want %s in one", res.AlgoLabel(), res.Segments, c.label)
			}
			exact, greedy := res.Solved, 0
			if c.label == "greedy" {
				exact, greedy = 0, res.Solved
			}
			for name, want := range map[string]int{
				"opt_solves_total":           1,
				"opt_solved_intervals_total": res.Solved,
				"opt_flow_intervals_total":   exact,
				"opt_greedy_intervals_total": greedy,
			} {
				if got := reg.Counter(name).Value(); got != int64(want) {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
		})
	}
}

// TestNonUniformCostsLabelledByGreedy: a window whose per-byte costs
// differ — OHR costs, or costs a trace carries of its own (the cost
// objective) — gets AlgoFlow labels bit-identical to AlgoGreedy's, on the
// first two default_flow windows; a BHR window is swept.
func TestNonUniformCostsLabelledByGreedy(t *testing.T) {
	for w, base := range cdnWindows(t, 2, 7000, 7) {
		own := &trace.Trace{Requests: slices.Clone(base.Requests)}
		for i := range own.Requests {
			r := &own.Requests[i]
			r.Cost = float64(r.Size) * float64(1+uint64(r.ID)%7)
		}
		for _, tr := range []*trace.Trace{base.WithCosts(trace.ObjectiveOHR), own.WithCosts(trace.ObjectiveCost)} {
			flow, err := Compute(tr, Config{CacheSize: 64 << 20, Algorithm: AlgoFlow})
			if err != nil {
				t.Fatal(err)
			}
			greedy, err := Compute(tr, Config{CacheSize: 64 << 20, Algorithm: AlgoGreedy})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(flow.Admit, greedy.Admit) {
				t.Errorf("window %d: AlgoFlow's labels differ from AlgoGreedy's", w)
			}
			if flow.AlgoLabel() != "greedy" || flow.FlowIntervals != 0 || flow.Segments != 1 {
				t.Errorf("window %d: labelled by %s, %d exact intervals, %d segments; want greedy, 0, 1",
					w, flow.AlgoLabel(), flow.FlowIntervals, flow.Segments)
			}
		}
		res, err := Compute(base.WithCosts(trace.ObjectiveBHR), Config{CacheSize: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if res.AlgoLabel() != "sweep" || res.FlowIntervals != res.Solved {
			t.Errorf("window %d under BHR: labelled by %s, %d of %d exact", w, res.AlgoLabel(), res.FlowIntervals, res.Solved)
		}
	}
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

// flowLowerBound solves the FOO flow of the whole trace and returns its
// optimum in cost units (the flow's integer cost divided by the
// quantisation scale, plus the compulsory misses the graph leaves out)
// together with the most the rounding of the arc costs can have added to
// it.
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
// requests, sizes 1–4, capacity 2–6, BHR and OHR costs) the flow's LP
// optimum is a lower bound on exhaustive OPT's miss cost, and every
// schedule — AlgoFlow's (the sweep under BHR, the greedy under OHR),
// AlgoGreedy's, and the labels read off the flow (flowLabels) — is
// feasible and misses at least what OPT misses.
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
			schedules := map[string][]bool{}
			for _, algo := range []Algorithm{AlgoFlow, AlgoGreedy} {
				res, err := Compute(tr, Config{CacheSize: capacity, Algorithm: algo})
				if err != nil {
					t.Fatal(err)
				}
				schedules[algo.String()] = res.Admit
			}
			schedules["flow labels"], _ = flowLabels(t, tr, capacity)
			for _, name := range []string{"flow", "greedy", "flow labels"} {
				admit := schedules[name]
				checkFeasible(t, tr, admit, capacity)
				miss := 0.0
				prev := tr.PrevRequestIndex()
				for j, r := range tr.Requests {
					if i := prev[j]; i < 0 || !admit[i] {
						miss += r.Cost
					}
				}
				if miss < brute-1e-9 {
					t.Fatalf("trial %d %v %s: schedule misses %.6f, exhaustive OPT %.6f\n%+v cap %d",
						trial, obj, name, miss, brute, tr.Requests, capacity)
				}
				// The exact labels: the sweep's under BHR, the flow's under OHR.
				exact := "flow labels"
				if obj == trace.ObjectiveBHR {
					exact = "flow"
				}
				if name == exact && miss < brute+1e-9 {
					tight++
				}
			}
		}
	}
	// Not a theorem (the extraction is all-or-nothing per interval), but
	// if the exact schedules stopped reaching OPT on most tiny traces the
	// labels got worse.
	if tight < 700 {
		t.Errorf("exact labels reached exhaustive OPT on %d of 800 traces", tight)
	}
}
