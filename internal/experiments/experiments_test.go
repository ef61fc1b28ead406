package experiments

import (
	"reflect"
	"strings"
	"testing"

	"lfo/internal/obs"
)

// The experiment tests validate the paper's qualitative shape targets at
// Quick() scale; EXPERIMENTS.md records the full-scale numbers.

func quick(t *testing.T) Config {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment harness skipped in -short mode")
	}
	return Quick()
}

func TestFig1Shape(t *testing.T) {
	rs, err := Fig1(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PolicyResult{}
	for _, r := range rs {
		byName[r.Name] = r
	}
	gdsf, rlc, lru, rnd := byName["GDSF"], byName["RLC"], byName["LRU"], byName["RND"]
	// Shape: GDSF beats RND, LRU and RLC (Fig 1's point).
	for _, weak := range []PolicyResult{rlc, lru, rnd} {
		if gdsf.OHR <= weak.OHR {
			t.Errorf("GDSF OHR %.4f <= %s %.4f", gdsf.OHR, weak.Name, weak.OHR)
		}
	}
	// RLC lands in the RND/LRU band, far from GDSF (within the band ±
	// a generous margin, not above GDSF).
	band := gdsf.OHR - maxF(rnd.OHR, lru.OHR)
	if band <= 0 {
		t.Fatalf("no separation between GDSF and simple policies")
	}
	if rlc.OHR > gdsf.OHR-band/2 {
		t.Errorf("RLC OHR %.4f not clearly below GDSF %.4f", rlc.OHR, gdsf.OHR)
	}
	tbl := Fig1Table(rs)
	if !strings.Contains(tbl.String(), "GDSF") {
		t.Error("table missing GDSF row")
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestAccuracyHeadline(t *testing.T) {
	res, err := Accuracy(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainWindow != 10000 || res.EvalWindow != 10000 {
		t.Errorf("windows = %d, %d, want the quick scale's 10000", res.TrainWindow, res.EvalWindow)
	}
	AccuracyTable(res)
	// Paper: >93% on its production trace. Synthetic mixes are noisier;
	// requires a clearly-learned signal.
	if res.Accuracy < 0.80 {
		t.Errorf("accuracy %.3f, want >= 0.80", res.Accuracy)
	}
	if res.Accuracy > 0.999 {
		t.Errorf("accuracy %.3f suspiciously perfect", res.Accuracy)
	}
}

func TestFig5aShape(t *testing.T) {
	pts, err := Fig5a(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 10 {
		t.Fatalf("only %d cutoff points", len(pts))
	}
	// FP monotone non-increasing, FN monotone non-decreasing in cutoff.
	for i := 1; i < len(pts); i++ {
		if pts[i].FalsePositivePct > pts[i-1].FalsePositivePct+1e-9 {
			t.Errorf("FP%% increased at cutoff %.2f", pts[i].Cutoff)
		}
		if pts[i].FalseNegativePct < pts[i-1].FalseNegativePct-1e-9 {
			t.Errorf("FN%% decreased at cutoff %.2f", pts[i].Cutoff)
		}
	}
	Fig5aTable(pts) // rendering must not panic
}

func TestFig5bShape(t *testing.T) {
	cfg := quick(t)
	pts, err := Fig5b(cfg, []int{2500, 10000, 20000}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Error with the largest training set must not exceed the smallest
	// by more than noise (decaying trend).
	if pts[2].MeanErrPct > pts[0].MeanErrPct+2 {
		t.Errorf("error grew with training size: %.2f -> %.2f", pts[0].MeanErrPct, pts[2].MeanErrPct)
	}
	for _, p := range pts {
		if p.MinErrPct > p.MeanErrPct || p.MeanErrPct > p.MaxErrPct {
			t.Errorf("min/mean/max ordering broken at %d samples", p.Samples)
		}
	}
	Fig5bTable(pts)
}

func TestFig5cShape(t *testing.T) {
	cfg := quick(t)
	cfg.Window = 6000
	res, err := Fig5c(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ErrPcts) != 6 {
		t.Fatalf("errs = %d", len(res.ErrPcts))
	}
	// Robustness claim: small spread across seeds/subsets. The paper
	// reports ~0.5pp over subsets of one trace. Here every seed generates
	// a new trace and the trainer, at its defaults, samples nothing, so
	// the spread is the traces' alone; allow a few points.
	if res.SpreadPct > 10 {
		t.Errorf("seed spread %.2fpp implausibly high", res.SpreadPct)
	}
	if res.MeanErrPct <= 0 || res.MeanErrPct >= 50 {
		t.Errorf("mean error %.2f%% out of plausible range", res.MeanErrPct)
	}
	Fig5cTable(res)
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PolicyResult{}
	for _, p := range res.Policies {
		byName[p.Name] = p
	}
	lfo := byName["LFO"]
	// Core shape targets: OPT bounds everything; LFO beats LRU; LFO is a
	// large share of OPT.
	if res.OPT.BHR < lfo.BHR {
		t.Errorf("OPT BHR %.4f < LFO %.4f", res.OPT.BHR, lfo.BHR)
	}
	if lfo.BHR <= byName["LRU"].BHR {
		t.Errorf("LFO BHR %.4f <= LRU %.4f", lfo.BHR, byName["LRU"].BHR)
	}
	if res.LFOShareOfOPT < 0.5 {
		t.Errorf("LFO/OPT = %.2f, want >= 0.5", res.LFOShareOfOPT)
	}
	// Every policy must be within the OPT bound.
	for _, p := range res.Policies {
		if p.BHR > res.OPT.BHR+1e-9 {
			t.Errorf("%s BHR %.4f exceeds OPT %.4f", p.Name, p.BHR, res.OPT.BHR)
		}
	}
	if tbl := Fig6Table(res); !strings.Contains(tbl.Title, "bhr objective") {
		t.Errorf("title %q does not name the objective", tbl.Title)
	}
}

func TestFig8Shape(t *testing.T) {
	cfg := quick(t)
	entries, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	imp := map[string]float64{}
	total := 0.0
	for _, e := range entries {
		imp[e.Feature] = e.Percent
		total += e.Percent
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("importances sum to %.2f%%, want 100%%", total)
	}
	// Shape targets: size dominates; cost unused under BHR (redundant
	// with size); gap1 heavily used.
	if imp["size"] < imp["cost"] {
		t.Errorf("size %.2f%% below cost %.2f%%", imp["size"], imp["cost"])
	}
	if imp["cost"] > 5 {
		t.Errorf("cost feature used in %.2f%% of branches, paper says unused for BHR", imp["cost"])
	}
	if imp["gap1"] <= 0 {
		t.Error("gap1 unused, paper says gaps 1-4 are heavily used")
	}
	Fig8Table(entries)
}

func TestAblationRankFraction(t *testing.T) {
	cfg := quick(t)
	cfg.Requests = 10000
	pts, err := AblationRankFraction(cfg, []float64{1.0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// The baseline is the exact solve whatever the list's order: a list
	// that ends at 1.0 judges that point exact and the 0.5 one against it.
	rev, err := AblationRankFraction(cfg, []float64{0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if rev[1].Agreement != 1 || rev[1].HitBytesShare != 1 {
		t.Errorf("fraction 1.0 after 0.5: agreement %.3f, hit-bytes share %.3f, want 1 and 1", rev[1].Agreement, rev[1].HitBytesShare)
	}
	if rev[0].HitBytesShare > 1.0+1e-9 || rev[0].Agreement == 1 {
		t.Errorf("fraction 0.5 before 1.0: agreement %.3f, hit-bytes share %.3f", rev[0].Agreement, rev[0].HitBytesShare)
	}
	if pts[0].Agreement != 1.0 {
		t.Errorf("exact baseline agreement = %.3f, want 1.0", pts[0].Agreement)
	}
	if pts[1].Agreement < 0.7 {
		t.Errorf("0.3-fraction agreement %.3f implausibly low", pts[1].Agreement)
	}
	if pts[1].HitBytesShare > 1.0+1e-9 {
		t.Errorf("approximation hit bytes exceed exact: %.3f", pts[1].HitBytesShare)
	}
	// The cost column is work, not seconds: fewer intervals to solve.
	if pts[1].Solved >= pts[0].Solved || pts[1].Solved == 0 {
		t.Errorf("intervals solved: %d at 0.3, %d at 1.0", pts[1].Solved, pts[0].Solved)
	}
	AblationRankFractionTable(pts)
}

func TestAblationFeatureVariants(t *testing.T) {
	cfg := quick(t)
	cfg.Requests = 16000
	cfg.Window = 8000
	rs, err := AblationFeatureVariants(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("variants = %d", len(rs))
	}
	for _, r := range rs {
		if r.ErrPct <= 0 || r.ErrPct >= 60 {
			t.Errorf("%s: err %.2f%% out of plausible range", r.Variant, r.ErrPct)
		}
		if r.Splits <= 0 {
			t.Errorf("%s: no splits", r.Variant)
		}
	}
	AblationFeatureVariantsTable(rs)
}

func TestAblationPolicyDesign(t *testing.T) {
	cfg := quick(t)
	cfg.Requests = 20000
	cfg.Window = 5000
	rs, err := AblationPolicyDesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("variants = %d", len(rs))
	}
	for _, r := range rs {
		if r.BHR <= 0 || r.BHR >= 1 {
			t.Errorf("%s: BHR %.4f degenerate", r.Name, r.BHR)
		}
	}
	AblationPolicyDesignTable(rs)
}

// TestObsRecordsEveryReplay: a registry in Config counts every replay of
// the tables that once ran without it, and leaves their rows as they are
// without one.
func TestObsRecordsEveryReplay(t *testing.T) {
	cfg := quick(t)
	cfg.Requests = 8000
	cfg.Window = 2000
	cfg.CacheSize = 8 << 20
	for _, tc := range []struct {
		name string
		run  func(Config) (any, error)
		runs int64
	}{
		{"policy design", func(c Config) (any, error) { return AblationPolicyDesign(c) }, 4},
		{"tiered", func(c Config) (any, error) { return TieredExperiment(c) }, 4},
		{"robustness", func(c Config) (any, error) { return Robustness(c) }, 14},
	} {
		plain, err := tc.run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Obs = obs.NewRegistry()
		recorded, err := tc.run(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Obs.Counter("sim_runs_total").Value(); got != tc.runs {
			t.Errorf("%s: sim_runs_total = %d, want %d", tc.name, got, tc.runs)
		}
		if !reflect.DeepEqual(plain, recorded) {
			t.Errorf("%s: rows differ with a registry", tc.name)
		}
	}
}

func TestAblationIterations(t *testing.T) {
	cfg := quick(t)
	cfg.Requests = 12000
	cfg.Window = 6000
	rs, err := AblationIterations(cfg, []int{5, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("results = %d", len(rs))
	}
	for i, want := range []int{5, 30} {
		if rs[i].Trees != want || rs[i].Leaves < 2*want {
			t.Errorf("%d iterations: %d trees, %d leaves", want, rs[i].Trees, rs[i].Leaves)
		}
	}
	AblationIterationsTable(rs)
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"xxxxx", "y"}},
	}
	s := tbl.String()
	if !strings.Contains(s, "== demo ==") || !strings.Contains(s, "xxxxx") {
		t.Errorf("bad render:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 3 {
		t.Errorf("want 3 lines, got %d", len(lines))
	}
}

func TestTieredExperiment(t *testing.T) {
	cfg := quick(t)
	cfg.Requests = 24000
	rs, err := TieredExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("variants = %d", len(rs))
	}
	byName := map[string]TieredResult{}
	for _, r := range rs {
		byName[r.Variant] = r
		if r.BHR <= 0 || r.BHR >= 1 {
			t.Errorf("%s: BHR %.4f degenerate", r.Variant, r.BHR)
		}
	}
	// Learned admission must beat admit-all with the same placement.
	learned := byName["LFO admission + size placement"]
	naive := byName["admit-all + size placement"]
	if learned.BHR <= naive.BHR {
		t.Errorf("learned admission BHR %.4f <= admit-all %.4f", learned.BHR, naive.BHR)
	}
	TieredTable(rs)
}

func TestRobustness(t *testing.T) {
	cfg := quick(t)
	cfg.Requests = 30000
	cfg.Window = 7500
	rs, err := Robustness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]RobustnessResult{}
	for _, r := range rs {
		byName[r.Policy] = r
		if r.CleanBHR <= 0 {
			t.Errorf("%s: zero clean BHR", r.Policy)
		}
	}
	// Admission-controlled LFO must degrade less than admit-all LRU.
	lfo, lru := byName["LFO"], byName["LRU"]
	if lfo.Degradation >= lru.Degradation {
		t.Errorf("LFO degradation %.3f >= LRU %.3f under scans", lfo.Degradation, lru.Degradation)
	}
	RobustnessTable(rs)
}

func TestEvictionGridDeterministicAcrossWorkers(t *testing.T) {
	cfg := quick(t)
	cfg.Requests = 12000
	cfg.Window = 4000
	cfg.CacheSize = 8 << 20
	run := func(workers int) []EvictionGridResult {
		c := cfg
		c.Workers = workers
		rs, err := EvictionGrid(c)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b, c := run(1), run(1), run(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("grid differs across reruns")
	}
	if !reflect.DeepEqual(a, c) {
		t.Error("grid differs across worker counts")
	}
	if len(a) != 27 {
		t.Fatalf("cells = %d, want 27", len(a))
	}
	for _, r := range a {
		if r.BHR <= 0 || r.BHR >= 1 {
			t.Errorf("%s/%s/%s: BHR %.4f degenerate", r.Scenario, r.Admission, r.Eviction, r.BHR)
		}
	}
	EvictionGridTable(a)
}

// TestEvictionGridLearnedBeatsGDSFUnderDrift pins the tentpole's payoff:
// on at least one drift scenario, learned eviction matches or beats GDSF
// at equal admission. (At full scale the learned evictor wins every
// cdn-drift admission row; see EXPERIMENTS.md.)
func TestEvictionGridLearnedBeatsGDSFUnderDrift(t *testing.T) {
	cfg := quick(t)
	cfg.Requests = 20000
	cfg.Window = 5000
	cfg.CacheSize = 8 << 20
	rs, err := EvictionGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(sc, adm, ev string) float64 {
		for _, r := range rs {
			if r.Scenario == sc && r.Admission == adm && r.Eviction == ev {
				return r.BHR
			}
		}
		t.Fatalf("missing cell %s/%s/%s", sc, adm, ev)
		return 0
	}
	won := false
	for _, sc := range []string{"cdn-drift", "reshuffle"} {
		for _, adm := range gridAdmissions {
			if cell(sc, adm, "learned") >= cell(sc, adm, "gdsf") {
				won = true
			}
		}
	}
	if !won {
		t.Error("learned eviction lost to GDSF on every drift cell")
	}
}
