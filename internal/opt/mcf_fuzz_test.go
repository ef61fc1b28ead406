package opt

import "testing"

// specFromBytes decodes a small flow problem from fuzz input, reading
// zeros once the input runs out: node count, edge count, per edge (from,
// to, capacity, cost), then supply transfers (from, to, amount) that keep
// the supplies balanced, then a flag that unbalances them one time in
// eight. Costs are small (many ties and zero-cost arcs) or up to 127.
func specFromBytes(data []byte) spec {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 2 + next()%8
	p := spec{n: n, supply: make([]int64, n)}
	for i := next() % 24; i > 0; i-- {
		from, to, capacity, cost := next()%n, next()%n, next()%8, next()
		if cost >= 128 {
			cost %= 4
		}
		p.edges = append(p.edges, [4]int64{int64(from), int64(to), int64(capacity), int64(cost)})
	}
	for i := next() % 6; i > 0; i-- {
		from, to, amt := next()%n, next()%n, int64(next()%8)
		p.supply[from] += amt
		p.supply[to] -= amt
	}
	if next()%8 == 7 {
		p.supply[0]++
	}
	return p
}

// FuzzSolveMatchesReference decodes a small graph with supplies from the
// fuzzed bytes and holds Solve to referenceSolve on it: same error class,
// same minimum cost, and an optimality certificate on the routed flow.
func FuzzSolveMatchesReference(f *testing.F) {
	for _, seed := range solveSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mustMatchReference(t, specFromBytes(data))
	})
}

// solveSeeds is FuzzSolveMatchesReference's seed corpus, in code and
// (through TestRegenerateFuzzCorpus) under testdata/fuzz.
var solveSeeds = [][]byte{
	// One edge, feasible; the same edge asked to carry too much; the
	// same supplies unbalanced.
	{0, 1, 0, 1, 7, 3, 1, 0, 1, 5, 0},
	{0, 1, 0, 1, 3, 3, 1, 0, 1, 5, 0},
	{0, 1, 0, 1, 7, 3, 1, 0, 1, 5, 7},
	// The diamond with a cross edge: the second unit must push the
	// first one back over a residual arc.
	{2, 5, 0, 1, 1, 1, 0, 2, 1, 4, 1, 2, 1, 1, 1, 3, 1, 5, 2, 3, 1, 1, 1, 0, 3, 2, 0},
	// Parallel arcs at three prices, a self-loop and a zero-capacity arc.
	{1, 5, 0, 2, 2, 1, 0, 2, 2, 0, 0, 2, 2, 9, 1, 1, 4, 0, 0, 2, 0, 0, 1, 0, 2, 5, 0},
	// A capacitated free line with equally priced chords, each carrying
	// its own supply: the FOO shape, every path cost a tie.
	{4, 9, 0, 1, 2, 0, 1, 2, 2, 0, 2, 3, 2, 0, 3, 4, 2, 0, 4, 5, 2, 0,
		0, 3, 3, 8, 1, 4, 2, 8, 2, 5, 3, 8, 0, 5, 1, 8,
		4, 0, 3, 3, 1, 4, 2, 2, 5, 3, 0, 5, 1, 0},
	// The same line with four different chord prices, two sources and two
	// sinks, one sink unreachable from one source.
	{4, 8, 0, 1, 1, 0, 1, 2, 1, 0, 2, 3, 1, 0, 4, 5, 3, 0,
		0, 3, 2, 5, 1, 3, 2, 17, 0, 2, 1, 90, 4, 5, 2, 2,
		3, 0, 3, 3, 1, 3, 2, 4, 5, 4, 0},
}

// TestFuzzSeedsCoverOutcomes keeps the seed corpus honest: between them
// the seeds must end in every outcome class and route real flow.
func TestFuzzSeedsCoverOutcomes(t *testing.T) {
	outcomes := map[string]int{}
	augmentations := 0
	for _, seed := range solveSeeds {
		st, _, class := mustMatchReference(t, specFromBytes(seed))
		outcomes[class]++
		augmentations += st.Augmentations
	}
	for _, class := range []string{"ok", "infeasible", "unbalanced"} {
		if outcomes[class] == 0 {
			t.Errorf("no seed ends %q", class)
		}
	}
	if augmentations < 10 {
		t.Errorf("the seeds push flow along only %d paths", augmentations)
	}
}
