package opt

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lfo/internal/gen"
	"lfo/internal/trace"
)

// checkSweepAgainstFlow segments tr under cfg as Compute does (stitched
// boundary intervals included) and, for every segment, runs the sweep and
// the min-cost flow on the same reservation: the sweep's bypassed bytes
// times the segment's arc cost must equal the flow's minimum cost, every
// interval must keep between 0 and its size, and the kept bytes plus the
// reservation must fit in the cache at every step, counted in a plain
// array. The flow is the oracle, so tr must have uniform per-byte costs.
// It returns the segments checked.
func checkSweepAgainstFlow(t testing.TB, tr *trace.Trace, cfg Config) int {
	t.Helper()
	ivs := buildIntervals(tr)
	if len(ivs) == 0 {
		return 0
	}
	segs, _ := stitchSegments(tr.Len(), ivs, cfg, make([]bool, tr.Len()))
	sc := newSolveScratch()
	checked := 0
	for s := range segs {
		sg := &segs[s]
		if len(sg.ivs) == 0 {
			continue
		}
		if !uniformCosts(sg.ivs) {
			t.Fatalf("segment %d [%d,%d): per-byte costs are not uniform", s, sg.lo, sg.hi)
		}
		sg.reserve(sc.occ)
		kept := append([]int64(nil), sweepKept(sg, cfg.CacheSize, sc)...)

		occ := make([]int64, sg.hi-sg.lo)
		for _, b := range sg.bnd {
			for step := max(b.from, sg.lo); step < min(b.to, sg.hi); step++ {
				occ[step-sg.lo] += b.size
			}
		}
		var bypassed int64
		for k, iv := range sg.ivs {
			if kept[k] < 0 || kept[k] > iv.size {
				t.Fatalf("segment %d: interval [%d,%d) of %d bytes keeps %d", s, iv.from, iv.to, iv.size, kept[k])
			}
			bypassed += iv.size - kept[k]
			for step := iv.from; step < iv.to; step++ {
				occ[step-sg.lo] += kept[k]
			}
		}
		for step, o := range occ {
			if o > cfg.CacheSize {
				t.Fatalf("segment %d: %d bytes kept and reserved at request %d, cache %d", s, o, sg.lo+step, cfg.CacheSize)
			}
		}

		buildFlowGraph(sg, cfg.CacheSize, costScale, sc)
		cost, err := sc.solver.Solve(sc.g)
		if err != nil {
			t.Fatalf("segment %d: %v", s, err)
		}
		if want := bypassed * sc.costs[0]; cost != want {
			t.Fatalf("segment %d [%d,%d), %d intervals, %d reserved: sweep bypasses %d bytes (cost %d), flow minimum %d",
				s, sg.lo, sg.hi, len(sg.ivs), len(sg.bnd), bypassed, want, cost)
		}
		checked++
	}
	return checked
}

// TestSweepMatchesFlowOnBenchWindows holds the sweep to the flow on the
// windows the benchmark's default_flow workload labels: the first two
// 7000-request CDN-mix windows of seeds 3 and 7, at 16, 64 and 256 MiB,
// each one unsegmented solve.
func TestSweepMatchesFlowOnBenchWindows(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		for w, tr := range cdnWindows(t, 2, 7000, seed) {
			for _, size := range []int64{16 << 20, 64 << 20, 256 << 20} {
				if n := checkSweepAgainstFlow(t, tr, Config{CacheSize: size}); n != 1 {
					t.Errorf("seed %d window %d at %d MiB: %d segments checked, want 1", seed, w, size>>20, n)
				}
			}
		}
	}
}

// sweepWindow decodes a fuzz input, reading zeros once it runs out: the
// mix (CDN, web or unit sizes), a window of 50–2000 requests, the
// capacity as 1–1000 ‰ of the window's footprint (the summed size of its
// distinct objects), Segments 0–8 and the generator seed. Costs are BHR.
func sweepWindow(t testing.TB, data []byte) (*trace.Trace, Config) {
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
	segments := next() % 9
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
	return tr.WithCosts(trace.ObjectiveBHR), Config{CacheSize: max(footprint*int64(permille)/1000, 1), Segments: segments}
}

// FuzzSweepMatchesFlow holds the sweep to the min-cost flow, segment by
// segment, on fuzzed windows (checkSweepAgainstFlow).
func FuzzSweepMatchesFlow(f *testing.F) {
	for _, seed := range sweepSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, cfg := sweepWindow(t, data)
		checkSweepAgainstFlow(t, tr, cfg)
	})
}

// sweepSeeds is FuzzSweepMatchesFlow's seed corpus, in code and (through
// TestRegenerateFuzzCorpus) under testdata/fuzz: each mix whole and cut
// into segments, at a tight, a middling and an ample cache.
var sweepSeeds = [][]byte{
	{0, 0x07, 0x9e, 0x00, 0x32, 0, 3},  // CDN, 2000 requests, 5 %, whole
	{0, 0x05, 0xdc, 0x01, 0x2c, 6, 7},  // CDN, 1550, 30 %, six segments
	{1, 0x07, 0x9e, 0x00, 0x0a, 4, 11}, // web, 2000, 1 %, four segments
	{1, 0x03, 0x20, 0x01, 0xf4, 0, 2},  // web, 850, 50 %, whole
	{2, 0x07, 0x9e, 0x00, 0x64, 8, 5},  // unit, 2000, 10 %, eight segments
	{2, 0x00, 0x64, 0x03, 0xe7, 2, 9},  // unit, 150, 100 %, two segments
	{0, 0x00, 0x00, 0x00, 0x00, 1, 0},  // CDN, 50 requests, 0.1 %, one forced segment
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpus under
// testdata/fuzz when LFO_REGEN_CORPUS=1 is set; otherwise it is a no-op.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("LFO_REGEN_CORPUS") == "" {
		t.Skip("set LFO_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSweepMatchesFlow")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range sweepSeeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d", i+1)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSweepSeedsCoverSegments keeps the seed corpus honest: between them
// the seeds must check windows cut into several segments with bytes
// reserved across the cuts, as well as whole ones.
func TestSweepSeedsCoverSegments(t *testing.T) {
	whole, reserved := 0, 0
	for _, seed := range sweepSeeds {
		tr, cfg := sweepWindow(t, seed)
		segs, _ := stitchSegments(tr.Len(), buildIntervals(tr), cfg, make([]bool, tr.Len()))
		if len(segs) == 1 {
			whole++
		}
		for _, sg := range segs {
			if len(sg.bnd) > 0 {
				reserved++
			}
		}
	}
	if whole == 0 || reserved == 0 {
		t.Errorf("%d whole windows and %d segments with a reservation among the seeds", whole, reserved)
	}
}
