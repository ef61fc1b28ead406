package opt

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// solve routes g's supplies with a fresh Solver.
func solve(g *Graph) (int64, error) { return NewSolver().Solve(g) }

func TestSolveSingleEdge(t *testing.T) {
	g := NewGraph(2)
	e := g.AddEdge(0, 1, 10, 3)
	g.AddSupply(0, 7)
	g.AddSupply(1, -7)
	cost, err := solve(g)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if cost != 21 {
		t.Errorf("cost = %d, want 21", cost)
	}
	if got := g.Flow(e); got != 7 {
		t.Errorf("flow = %d, want 7", got)
	}
}

func TestSolvePicksCheaperPath(t *testing.T) {
	// 0 -> 1 -> 3 cost 2, 0 -> 2 -> 3 cost 5; both capacity 10, need 10.
	g := NewGraph(4)
	a1 := g.AddEdge(0, 1, 10, 1)
	a2 := g.AddEdge(1, 3, 10, 1)
	b1 := g.AddEdge(0, 2, 10, 2)
	b2 := g.AddEdge(2, 3, 10, 3)
	g.AddSupply(0, 10)
	g.AddSupply(3, -10)
	cost, err := solve(g)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if cost != 20 {
		t.Errorf("cost = %d, want 20", cost)
	}
	if g.Flow(a1) != 10 || g.Flow(a2) != 10 || g.Flow(b1) != 0 || g.Flow(b2) != 0 {
		t.Errorf("flows = %d,%d,%d,%d, want 10,10,0,0", g.Flow(a1), g.Flow(a2), g.Flow(b1), g.Flow(b2))
	}
}

func TestSolveSplitsAcrossPaths(t *testing.T) {
	// Cheap path has capacity 4, must overflow 6 units to expensive path.
	g := NewGraph(4)
	cheap := g.AddEdge(0, 1, 4, 1)
	g.AddEdge(1, 3, 100, 0)
	exp := g.AddEdge(0, 2, 100, 10)
	g.AddEdge(2, 3, 100, 0)
	g.AddSupply(0, 10)
	g.AddSupply(3, -10)
	cost, err := solve(g)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if cost != 4*1+6*10 {
		t.Errorf("cost = %d, want 64", cost)
	}
	if g.Flow(cheap) != 4 || g.Flow(exp) != 6 {
		t.Errorf("flows = %d,%d, want 4,6", g.Flow(cheap), g.Flow(exp))
	}
}

func TestSolveRequiresReroute(t *testing.T) {
	// Classic case where a later augmentation must push flow back over a
	// residual edge: diamond with a cross edge.
	//
	//   0 -> 1 (cap 1, cost 1)   0 -> 2 (cap 1, cost 4)
	//   1 -> 2 (cap 1, cost 1)   1 -> 3 (cap 1, cost 5)
	//   2 -> 3 (cap 1, cost 1)
	// Two units 0 -> 3. Optimal: 0-1-3 and 0-2-3? cost (1+5)+(4+1)=11,
	// or 0-1-2-3 and 0-2..: cap of 0->2 is 1 so: unit A 0-1-2-3 = 3,
	// unit B 0-2-3 but 2->3 already full -> must use 1->3: B = 0-2? no.
	// SSP first sends 0-1-2-3 (cost 3) then second unit: 0-2 (4), then
	// residual 2->1 (-1), then 1->3 (5): total 8. Overall 11.
	g := NewGraph(4)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(0, 2, 1, 4)
	g.AddEdge(1, 2, 1, 1)
	g.AddEdge(1, 3, 1, 5)
	g.AddEdge(2, 3, 1, 1)
	g.AddSupply(0, 2)
	g.AddSupply(3, -2)
	cost, err := solve(g)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if cost != 11 {
		t.Errorf("cost = %d, want 11", cost)
	}
}

func TestSolveMultiSourceSink(t *testing.T) {
	// Two sources (0:+3, 1:+2), two sinks (2:-1, 3:-4).
	g := NewGraph(4)
	g.AddEdge(0, 2, 10, 1)
	g.AddEdge(0, 3, 10, 2)
	g.AddEdge(1, 3, 10, 1)
	g.AddSupply(0, 3)
	g.AddSupply(1, 2)
	g.AddSupply(2, -1)
	g.AddSupply(3, -4)
	cost, err := solve(g)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// 0->2 ×1 (1), 0->3 ×2 (4), 1->3 ×2 (2) = 7.
	if cost != 7 {
		t.Errorf("cost = %d, want 7", cost)
	}
}

func TestSolveInfeasible(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 3, 1)
	g.AddSupply(0, 5)
	g.AddSupply(1, -5)
	if _, err := solve(g); !errors.Is(err, ErrInfeasible) {
		t.Errorf("Solve = %v, want ErrInfeasible", err)
	}
}

func TestSolveUnbalanced(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 3, 1)
	g.AddSupply(0, 5)
	if _, err := solve(g); !errors.Is(err, ErrUnbalanced) {
		t.Errorf("Solve = %v, want ErrUnbalanced", err)
	}
}

func TestSolveTwiceErrors(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 3, 1)
	g.AddSupply(0, 1)
	g.AddSupply(1, -1)
	if _, err := solve(g); err != nil {
		t.Fatal(err)
	}
	if _, err := solve(g); err == nil {
		t.Error("second Solve succeeded, want error")
	}
}

func TestSolveZeroSupply(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 3, 1)
	cost, err := solve(g)
	if err != nil || cost != 0 {
		t.Errorf("Solve = %d, %v, want 0, nil", cost, err)
	}
}

func TestAddEdgePanics(t *testing.T) {
	tests := []struct {
		name string
		f    func(*Graph)
	}{
		{"from out of range", func(g *Graph) { g.AddEdge(-1, 0, 1, 1) }},
		{"to out of range", func(g *Graph) { g.AddEdge(0, 9, 1, 1) }},
		{"negative capacity", func(g *Graph) { g.AddEdge(0, 1, -1, 1) }},
		{"negative cost", func(g *Graph) { g.AddEdge(0, 1, 1, -1) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.f(NewGraph(2))
		})
	}
}

// bruteForceMinCost enumerates all feasible integral flows on tiny graphs
// by DFS over per-edge flow assignments, returning the minimum cost or -1
// if infeasible.
func bruteForceMinCost(n int, edges [][4]int64, supply []int64) int64 {
	best := int64(-1)
	flows := make([]int64, len(edges))
	var rec func(i int)
	check := func() {
		bal := make([]int64, n)
		copy(bal, supply)
		var cost int64
		for i, e := range edges {
			bal[e[0]] -= flows[i]
			bal[e[1]] += flows[i]
			cost += flows[i] * e[3]
		}
		for _, b := range bal {
			if b != 0 {
				return
			}
		}
		if best == -1 || cost < best {
			best = cost
		}
	}
	rec = func(i int) {
		if i == len(edges) {
			check()
			return
		}
		for f := int64(0); f <= edges[i][2]; f++ {
			flows[i] = f
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// TestSolveMatchesBruteForce cross-checks the solver against exhaustive
// enumeration on random small graphs.
func TestSolveMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3) // 3..5 nodes
		ne := 2 + rng.Intn(4)
		edges := make([][4]int64, 0, ne)
		for i := 0; i < ne; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to {
				continue
			}
			edges = append(edges, [4]int64{int64(from), int64(to), int64(1 + rng.Intn(3)), int64(rng.Intn(5))})
		}
		supply := make([]int64, n)
		amt := int64(1 + rng.Intn(3))
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			return true
		}
		supply[src] = amt
		supply[dst] = -amt

		want := bruteForceMinCost(n, edges, supply)

		g := NewGraph(n)
		for _, e := range edges {
			g.AddEdge(int(e[0]), int(e[1]), e[2], e[3])
		}
		for v, s := range supply {
			g.AddSupply(v, s)
		}
		got, err := solve(g)
		if want == -1 {
			return errors.Is(err, ErrInfeasible)
		}
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFlowConservation verifies that after Solve, flow is conserved at
// every node relative to its supply, and capacities are respected.
func TestFlowConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(5)
		g := NewGraph(n)
		type edge struct {
			from, to int
			cap      int64
			id       int
		}
		var edges []edge
		// A path 0->1->...->n-1 guarantees feasibility, plus random chords.
		for v := 0; v+1 < n; v++ {
			id := g.AddEdge(v, v+1, 100, int64(rng.Intn(4)))
			edges = append(edges, edge{v, v + 1, 100, id})
		}
		for i := 0; i < n; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to {
				continue
			}
			c := int64(1 + rng.Intn(10))
			id := g.AddEdge(from, to, c, int64(rng.Intn(6)))
			edges = append(edges, edge{from, to, c, id})
		}
		amt := int64(1 + rng.Intn(50))
		g.AddSupply(0, amt)
		g.AddSupply(n-1, -amt)
		if _, err := solve(g); err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		bal := make([]int64, n)
		bal[0] = amt
		bal[n-1] = -amt
		for _, e := range edges {
			f := g.Flow(e.id)
			if f < 0 || f > e.cap {
				t.Fatalf("trial %d: edge flow %d outside [0,%d]", trial, f, e.cap)
			}
			bal[e.from] -= f
			bal[e.to] += f
		}
		for v, b := range bal {
			if b != 0 {
				t.Fatalf("trial %d: node %d imbalance %d", trial, v, b)
			}
		}
	}
}

// TestSolverReuseAcrossGraphs: one Solver solving a sequence of graphs
// must produce the same costs and flows as fresh per-graph solves — the
// scratch (potentials in particular) must not leak between solves.
func TestSolverReuseAcrossGraphs(t *testing.T) {
	build := func(k int64) *Graph {
		g := NewGraph(4)
		g.AddEdge(0, 1, 10, 1+k)
		g.AddEdge(0, 2, 10, 2)
		g.AddEdge(1, 3, 10, 1)
		g.AddEdge(2, 3, 10, 3+k)
		g.AddSupply(0, 7)
		g.AddSupply(3, -7)
		return g
	}
	s := NewSolver()
	for k := int64(0); k < 5; k++ {
		shared, err := s.Solve(build(k))
		if err != nil {
			t.Fatalf("k=%d: shared solver: %v", k, err)
		}
		fresh, err := solve(build(k))
		if err != nil {
			t.Fatalf("k=%d: fresh solver: %v", k, err)
		}
		if shared != fresh {
			t.Errorf("k=%d: shared solver cost %d != fresh %d", k, shared, fresh)
		}
	}
}

// TestGraphReset: a Reset graph must solve exactly like a newly built one,
// including edge flows, and must drop stale supplies and edges.
func TestGraphReset(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 5, 2)
	g.AddEdge(1, 2, 5, 2)
	g.AddSupply(0, 5)
	g.AddSupply(2, -5)
	if _, err := solve(g); err != nil {
		t.Fatal(err)
	}

	// Reuse for a different, smaller problem.
	g.Reset(2)
	if g.n != 2 || len(g.to) != 0 {
		t.Fatalf("after Reset: %d nodes %d edges", g.n, len(g.to)/2)
	}
	e := g.AddEdge(0, 1, 10, 3)
	g.AddSupply(0, 4)
	g.AddSupply(1, -4)
	cost, err := solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 12 {
		t.Errorf("cost = %d, want 12", cost)
	}
	if got := g.Flow(e); got != 4 {
		t.Errorf("Flow = %d, want 4", got)
	}

	// Reset to a larger instance than ever allocated.
	g.Reset(6)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, i+1, 3, 1)
	}
	g.AddSupply(0, 3)
	g.AddSupply(5, -3)
	cost, err = solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 15 {
		t.Errorf("cost = %d, want 15", cost)
	}
}
