package experiments

import (
	"math"
	"reflect"
	"testing"

	"lfo/internal/policy"
	"lfo/internal/sim"
)

// ogdRegret computes the OGD policy's per-window regret series against
// per-window OPT on the pinned paper web trace, with the OPT side solved
// under the given worker count.
func ogdRegret(t *testing.T, cfg Config, workers int) []float64 {
	t.Helper()
	tr, err := cfg.workload("stable")
	if err != nil {
		t.Fatal(err)
	}
	p, err := policy.New("ogd", cfg.CacheSize, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	// No warmup: window 0 is the cold-start window, so the running
	// average starts at the learner's worst and can only improve.
	m := sim.Run(tr, p, sim.Options{WindowSize: cfg.Window})
	cfg.Workers = workers
	reg, err := optWindowBHR(cfg, tr, m.Windows)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range m.Windows {
		reg[i] -= w.BHR()
	}
	return reg
}

// sameBits reports whether two regret series are byte-identical —
// float equality at the bit level, not within a tolerance.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestOGDRegretGolden pins the regret metric: the OGD policy's
// per-window regret against per-window OPT is byte-identical across
// reruns and across OPT worker counts for every seed tried, and on the
// stable web trace its running average is monotonically non-increasing —
// the online learner converges instead of churning.
func TestOGDRegretGolden(t *testing.T) {
	cfg := quick(t)
	cfg.Requests = 20000
	cfg.Window = 2000
	cfg.CacheSize = 8 << 20
	for _, seed := range []int64{42, 7, 123} {
		c := cfg
		c.Seed = seed
		base := ogdRegret(t, c, 1)
		if len(base) != c.Requests/c.Window {
			t.Fatalf("seed %d: %d windows, want %d", seed, len(base), c.Requests/c.Window)
		}
		if !sameBits(base, ogdRegret(t, c, 1)) {
			t.Errorf("seed %d: regret series differs across reruns", seed)
		}
		for _, workers := range []int{0, 2, 8} {
			if !sameBits(base, ogdRegret(t, c, workers)) {
				t.Errorf("seed %d: regret series differs at Workers=%d", seed, workers)
			}
		}
		// Running average non-increasing: each window's regret stays at
		// or below the average of the windows before it.
		sum, prev := 0.0, math.Inf(1)
		for i, r := range base {
			sum += r
			avg := sum / float64(i+1)
			if avg > prev+1e-12 {
				t.Errorf("seed %d: running average regret rose at window %d: %.6f -> %.6f",
					seed, i, prev, avg)
			}
			prev = avg
		}
	}
}

// TestDriftGridDeterministicAcrossWorkers: the full 3-scenario ×
// 4-policy grid — BHR, OHR, regret series, early-retrain counts — is
// identical across reruns and worker counts.
func TestDriftGridDeterministicAcrossWorkers(t *testing.T) {
	cfg := quick(t)
	cfg.Requests = 12000
	cfg.Window = 3000
	cfg.CacheSize = 8 << 20
	run := func(workers int) []DriftGridResult {
		c := cfg
		c.Workers = workers
		rs, err := DriftGrid(c)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b, c := run(1), run(1), run(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("drift grid differs across reruns")
	}
	if !reflect.DeepEqual(a, c) {
		t.Error("drift grid differs across worker counts")
	}
	if len(a) != 12 {
		t.Fatalf("cells = %d, want 12", len(a))
	}
	for _, r := range a {
		if r.BHR <= 0 || r.BHR >= 1 {
			t.Errorf("%s/%s: BHR %.4f degenerate", r.Scenario, r.Policy, r.BHR)
		}
		if len(r.Regret) != len(a[0].Regret) {
			t.Errorf("%s/%s: regret windows %d, want %d", r.Scenario, r.Policy, len(r.Regret), len(a[0].Regret))
		}
	}
	DriftGridTable(a)
}

// TestDriftGridHybridEarlyBeatsFrozenOnCDNDrift pins the tentpole's
// payoff at quick scale: on cdn-drift, the bridge with the early-retrain
// trigger strictly improves BHR over the frozen GBDT path. (At full
// scale the same holds; see EXPERIMENTS.md.)
func TestDriftGridHybridEarlyBeatsFrozenOnCDNDrift(t *testing.T) {
	cfg := quick(t)
	rs, err := DriftGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(sc, pol string) DriftGridResult {
		for _, r := range rs {
			if r.Scenario == sc && r.Policy == pol {
				return r
			}
		}
		t.Fatalf("missing cell %s/%s", sc, pol)
		return DriftGridResult{}
	}
	frozen := cell("cdn-drift", "frozen-gbdt")
	early := cell("cdn-drift", "hybrid+early-retrain")
	if early.BHR <= frozen.BHR {
		t.Errorf("cdn-drift: hybrid+early-retrain BHR %.4f does not beat frozen-gbdt %.4f",
			early.BHR, frozen.BHR)
	}
	if early.EarlyRetrains == 0 {
		t.Error("cdn-drift: trigger never fired")
	}
	if stable := cell("stable", "hybrid+early-retrain"); stable.EarlyRetrains != 0 {
		t.Errorf("stable: %d early retrains on a stationary trace, want 0", stable.EarlyRetrains)
	}
}
