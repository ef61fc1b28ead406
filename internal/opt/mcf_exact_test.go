package opt

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"lfo/internal/gen"
	"lfo/internal/trace"
)

// spec is a flow problem as data, so the same instance can be built twice
// (Solve consumes a graph) and the solved graph can be checked against
// what was asked for.
type spec struct {
	n      int
	edges  [][4]int64 // from, to, capacity, cost
	supply []int64
}

func (p spec) graph() *Graph {
	g := NewGraph(p.n)
	for _, e := range p.edges {
		g.AddEdge(int(e[0]), int(e[1]), e[2], e[3])
	}
	for v, s := range p.supply {
		g.AddSupply(v, s)
	}
	return g
}

// errClass names the three outcomes a solve can have besides a cost.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	case errors.Is(err, ErrUnbalanced):
		return "unbalanced"
	}
	return err.Error()
}

// mustMatchReference solves p with Solve and with referenceSolve and
// demands the same outcome: the same error class or the same minimum
// cost. A routed flow is then checked on its own terms by checkOptimal.
// It returns the solver's counters, the searches the reference ran and
// the outcome's class.
func mustMatchReference(t testing.TB, p spec) (Stats, int, string) {
	t.Helper()
	want, searches, wantErr := referenceSolve(p.graph())
	g, s := p.graph(), NewSolver()
	got, err := s.Solve(g)
	class := errClass(err)
	if class != errClass(wantErr) {
		t.Fatalf("Solve: %v, reference: %v\n%+v", err, wantErr, p)
	}
	if err != nil {
		return s.Stats(), searches, class
	}
	if got != want {
		t.Fatalf("Solve cost %d, reference cost %d\n%+v", got, want, p)
	}
	checkOptimal(t, p, g, s, got)
	return s.Stats(), searches, class
}

// checkOptimal verifies the optimality certificate of a solved graph
// without reference to another solver: the flow is conserved at every
// node, stays within 0..capacity on every edge, costs what Solve said, and
// under the solver's final potentials no arc with residual capacity has a
// negative reduced cost (complementary slackness: such a flow is a
// minimum-cost flow).
func checkOptimal(t testing.TB, p spec, g *Graph, s *Solver, cost int64) {
	t.Helper()
	bal := append([]int64(nil), p.supply...)
	var sum int64
	for k, e := range p.edges {
		f := g.Flow(k)
		if f < 0 || f > e[2] {
			t.Fatalf("edge %d: flow %d outside [0,%d]", k, f, e[2])
		}
		bal[e[0]] -= f
		bal[e[1]] += f
		sum += f * e[3]
	}
	for v, b := range bal {
		if b != 0 {
			t.Fatalf("node %d: imbalance %d", v, b)
		}
	}
	if sum != cost {
		t.Fatalf("Solve returned cost %d, the flow costs %d", cost, sum)
	}
	for e := range g.to {
		from, to := g.to[e^1], g.to[e]
		if rc := g.cost[e] + s.pot[from] - s.pot[to]; g.cap[e] > 0 && rc < 0 {
			t.Fatalf("residual arc %d->%d has reduced cost %d", from, to, rc)
		}
	}
}

// randomSpec draws a small general graph that exercises everything the
// graph API admits: zero-cost and zero-capacity arcs, parallel arcs,
// self-loops, several sources and sinks, supplies the capacities cannot
// carry and, now and then, supplies that do not sum to zero.
func randomSpec(rng *rand.Rand) spec {
	n := 2 + rng.Intn(11)
	p := spec{n: n, supply: make([]int64, n)}
	for i := rng.Intn(4 * n); i > 0; i-- {
		from, to := rng.Intn(n), rng.Intn(n)
		cost := int64(rng.Intn(4))
		if rng.Intn(2) == 0 {
			cost = int64(rng.Intn(200))
		}
		p.edges = append(p.edges, [4]int64{int64(from), int64(to), int64(rng.Intn(9)), cost})
		if rng.Intn(6) == 0 { // a parallel arc, usually at another price
			p.edges = append(p.edges, [4]int64{int64(from), int64(to), int64(1 + rng.Intn(4)), int64(rng.Intn(4))})
		}
	}
	for i := rng.Intn(5); i > 0; i-- {
		amt := int64(1 + rng.Intn(6))
		p.supply[rng.Intn(n)] += amt
		p.supply[rng.Intn(n)] -= amt
	}
	if rng.Intn(40) == 0 {
		p.supply[rng.Intn(n)]++
	}
	return p
}

// lineSpec draws a FOO-shaped graph: a capacitated zero-cost line, and
// chords that each carry their own supply from their tail to their head at
// a per-unit price (the bypass arcs). Always feasible: every chord can
// carry its own supply. With costs == 1 every chord costs the same, the
// uniform-price plateau of BHR labels; otherwise prices are drawn from
// 1..costs.
func lineSpec(rng *rand.Rand, n, chords int, capacity int64, costs int) spec {
	p := spec{n: n, supply: make([]int64, n)}
	for v := 0; v+1 < n; v++ {
		p.edges = append(p.edges, [4]int64{int64(v), int64(v + 1), capacity, 0})
	}
	for i := 0; i < chords; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-1-u)
		size := int64(1 + rng.Intn(50))
		p.edges = append(p.edges, [4]int64{int64(u), int64(v), size, int64(1 + rng.Intn(costs))})
		p.supply[u] += size
		p.supply[v] -= size
	}
	return p
}

// TestSolveMatchesReference holds Solve to the solver it replaced: same
// error class and same minimum cost on random general graphs and on
// FOO-shaped ones, and an optimality certificate on every flow it routes.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	outcomes := map[string]int{}
	for i := 0; i < 4000; i++ {
		_, _, class := mustMatchReference(t, randomSpec(rng))
		outcomes[class]++
	}
	for _, class := range []string{"ok", "infeasible", "unbalanced"} {
		if outcomes[class] < 50 {
			t.Errorf("only %d random graphs ended %q; the generator no longer covers it", outcomes[class], class)
		}
	}
	for _, costs := range []int{1, 5000} {
		for i := 0; i < 12; i++ {
			n := 40 + rng.Intn(200)
			p := lineSpec(rng, n, 2*n+rng.Intn(2*n), int64(20+rng.Intn(200)), costs)
			st, _, _ := mustMatchReference(t, p)
			if st.Searches != st.PotentialMoves {
				t.Errorf("feasible graph: %d Dijkstra runs moved the potentials %d times", st.Searches, st.PotentialMoves)
			}
		}
	}
}

// fooSpec builds the FOO graph buildFlowGraph hands the solver for one
// window under BHR costs (a node per interval endpoint, a central arc of
// the cache's capacity between consecutive endpoints, per interval a
// bypass arc of the object's size at 1024 per byte and the object's bytes
// as supply at its start and demand at its end).
func fooSpec(reqs []trace.Request, cacheSize int64) spec {
	next := (&trace.Trace{Requests: reqs}).NextRequestIndex()
	var idx []int
	for i, j := range next {
		if j >= 0 {
			idx = append(idx, i, j)
		}
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
	p := spec{n: len(idx), supply: make([]int64, len(idx))}
	for k := 0; k+1 < len(idx); k++ {
		p.edges = append(p.edges, [4]int64{int64(k), int64(k + 1), cacheSize, 0})
	}
	for i, j := range next {
		if j < 0 {
			continue
		}
		u, v := sort.SearchInts(idx, i), sort.SearchInts(idx, j)
		p.edges = append(p.edges, [4]int64{int64(u), int64(v), reqs[i].Size, 1024})
		p.supply[u] += reqs[i].Size
		p.supply[v] -= reqs[i].Size
	}
	return p
}

// TestFlowWindowSearches pins the structural claim of the primal-dual
// loop on the graphs it was written for: the two 7000-request CDN-mix
// windows at 64 MiB whose models TestBenchConfigModelPins pins (the
// repository benchmark's default_flow workload, seed 7). The old loop
// needs a heap search per path, thousands per window; here a Dijkstra
// runs only to move the potentials, a few dozen times, and the minimum
// cost is the same.
func TestFlowWindowSearches(t *testing.T) {
	const window = 7000
	tr, err := gen.Generate(gen.CDNMix(2*window, 7))
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		p := fooSpec(tr.Requests[w*window:(w+1)*window], 64<<20)
		st, searches, _ := mustMatchReference(t, p)
		t.Logf("window %d: %d nodes, %d edges; reference %d searches; now %+v", w, p.n, len(p.edges), searches, st)
		if searches <= 2500 {
			t.Errorf("window %d: the reference ran only %d searches; the window no longer shows the plateau", w, searches)
		}
		if st.Searches != st.PotentialMoves || st.PotentialMoves > 64 {
			t.Errorf("window %d: %d Dijkstra runs, %d potential moves, want equal and at most 64", w, st.Searches, st.PotentialMoves)
		}
		if st.Passes >= st.Augmentations {
			t.Errorf("window %d: %d passes carried only %d augmentations", w, st.Passes, st.Augmentations)
		}
	}
}

// TestSolveInfeasibleCountsSearch: on an infeasible graph the last
// Dijkstra proves the sink unreachable instead of moving the potentials.
func TestSolveInfeasibleCountsSearch(t *testing.T) {
	p := spec{n: 3, edges: [][4]int64{{0, 1, 5, 2}, {1, 2, 3, 1}}, supply: []int64{5, 0, -5}}
	st, _, _ := mustMatchReference(t, p)
	if st.Searches != st.PotentialMoves+1 {
		t.Errorf("%d searches, %d potential moves, want one search more", st.Searches, st.PotentialMoves)
	}
}

// TestSolverStatsResetPerSolve: the counters describe the latest solve.
func TestSolverStatsResetPerSolve(t *testing.T) {
	p := lineSpec(rand.New(rand.NewSource(3)), 50, 120, 40, 9)
	s := NewSolver()
	if _, err := s.Solve(p.graph()); err != nil {
		t.Fatal(err)
	}
	first := s.Stats()
	if first.Augmentations == 0 || first.Passes == 0 {
		t.Fatalf("no work counted: %+v", first)
	}
	if _, err := s.Solve(p.graph()); err != nil {
		t.Fatal(err)
	}
	if s.Stats() != first {
		t.Errorf("second solve of the same graph counted %+v, first %+v", s.Stats(), first)
	}
}
