package opt

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lfo/internal/gen"
	"lfo/internal/trace"
)

// checkSweepAgainstFlow runs the sweep and the min-cost flow on the whole
// of tr under a cache of capacity bytes: the sweep's bypassed bytes times
// the window's arc cost must equal the flow's minimum cost, every interval
// must keep between 0 and its size, and the kept bytes must fit in the
// cache at every step, counted in a plain array. The flow is the oracle,
// so tr must have uniform per-byte costs.
func checkSweepAgainstFlow(t testing.TB, tr *trace.Trace, capacity int64) {
	t.Helper()
	ivs := buildIntervals(tr)
	if len(ivs) == 0 {
		return
	}
	if !uniformCosts(ivs) {
		t.Fatal("per-byte costs are not uniform")
	}
	kept := sweepKept(ivs, tr.Len(), capacity)

	occ := make([]int64, tr.Len())
	var bypassed int64
	for k, iv := range ivs {
		if kept[k] < 0 || kept[k] > iv.size {
			t.Fatalf("interval [%d,%d) of %d bytes keeps %d", iv.from, iv.to, iv.size, kept[k])
		}
		bypassed += iv.size - kept[k]
		for step := iv.from; step < iv.to; step++ {
			occ[step] += kept[k]
		}
	}
	for step, o := range occ {
		if o > capacity {
			t.Fatalf("%d bytes kept at request %d, cache %d", o, step, capacity)
		}
	}

	f := buildFlowGraph(ivs, capacity, costScale)
	cost, err := f.solver.Solve(f.g)
	if err != nil {
		t.Fatal(err)
	}
	if want := bypassed * f.costs[0]; cost != want {
		t.Fatalf("%d requests, %d intervals: sweep bypasses %d bytes (cost %d), flow minimum %d",
			tr.Len(), len(ivs), bypassed, want, cost)
	}
}

// TestSweepMatchesFlowOnBenchWindows holds the sweep to the flow on the
// windows the benchmark's default_flow workload labels: the first two
// 7000-request CDN-mix windows of seeds 3 and 7, at 16, 64 and 256 MiB.
func TestSweepMatchesFlowOnBenchWindows(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		for _, tr := range cdnWindows(t, 2, 7000, seed) {
			for _, size := range []int64{16 << 20, 64 << 20, 256 << 20} {
				checkSweepAgainstFlow(t, tr, size)
			}
		}
	}
}

// sweepWindow decodes a fuzz input, reading zeros once it runs out: the
// mix (CDN, web or unit sizes), a window of 50–2000 requests, the
// capacity as 1–1000 ‰ of the window's footprint (the summed size of its
// distinct objects), a byte that once chose the segment count and is read
// so that the committed corpus decodes to the same windows, and the
// generator seed. Costs are BHR.
func sweepWindow(t testing.TB, data []byte) (*trace.Trace, int64) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	mix := next() % 3
	n := 50 + (next()<<8|next())%1951
	permille := 1 + (next()<<8|next())%1000
	next() // the former segment count
	seed := int64(next()) + 1
	var gc gen.Config
	switch mix {
	case 0:
		gc = gen.CDNMix(n, seed)
	case 1:
		gc = gen.WebMix(n, seed)
	default:
		gc = gen.UnitMix(n, seed, 64, 0.9)
	}
	tr, err := gen.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[trace.ObjectID]bool{}
	var footprint int64
	for _, r := range tr.Requests {
		if !seen[r.ID] {
			seen[r.ID] = true
			footprint += r.Size
		}
	}
	return tr.WithCosts(trace.ObjectiveBHR), max(footprint*int64(permille)/1000, 1)
}

// FuzzSweepMatchesFlow holds the sweep to the min-cost flow on fuzzed
// windows (checkSweepAgainstFlow).
func FuzzSweepMatchesFlow(f *testing.F) {
	for _, seed := range sweepSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, capacity := sweepWindow(t, data)
		checkSweepAgainstFlow(t, tr, capacity)
	})
}

// sweepSeeds is FuzzSweepMatchesFlow's seed corpus, in code and (through
// TestRegenerateFuzzCorpus) under testdata/fuzz: each mix at a tight, a
// middling and an ample cache. The sixth byte is the ignored segment
// count.
var sweepSeeds = [][]byte{
	{0, 0x07, 0x9e, 0x00, 0x32, 0, 3},  // CDN, 2000 requests, 5 %
	{0, 0x05, 0xdc, 0x01, 0x2c, 6, 7},  // CDN, 1550, 30 %
	{1, 0x07, 0x9e, 0x00, 0x0a, 4, 11}, // web, 2000, 1 %
	{1, 0x03, 0x20, 0x01, 0xf4, 0, 2},  // web, 850, 50 %
	{2, 0x07, 0x9e, 0x00, 0x64, 8, 5},  // unit, 2000, 10 %
	{2, 0x00, 0x64, 0x03, 0xe7, 2, 9},  // unit, 150, 100 %
	{0, 0x00, 0x00, 0x00, 0x00, 1, 0},  // CDN, 50 requests, 0.1 %
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpora of
// FuzzSweepMatchesFlow and FuzzSolveMatchesReference under testdata/fuzz
// when LFO_REGEN_CORPUS=1 is set; otherwise it is a no-op. The committed
// files mirror the in-code f.Add seeds so `go test` (and the check.sh
// fuzz smoke) always replays them from a fresh checkout.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("LFO_REGEN_CORPUS") == "" {
		t.Skip("set LFO_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	for name, seeds := range map[string][][]byte{
		"FuzzSweepMatchesFlow":      sweepSeeds,
		"FuzzSolveMatchesReference": solveSeeds,
	} {
		dir := filepath.Join("testdata", "fuzz", name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d", i+1)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
