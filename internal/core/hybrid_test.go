package core

import (
	"testing"

	"lfo/internal/gen"
	"lfo/internal/obs"
	"lfo/internal/trace"
)

func TestHybridValidation(t *testing.T) {
	cfg := testConfig(1<<20, 1000)
	cfg.HybridLR = -0.1
	if _, err := New(cfg); err == nil {
		t.Error("negative HybridLR accepted")
	}
	cfg = testConfig(1<<20, 1000)
	cfg.DriftThreshold = -0.5
	if _, err := New(cfg); err == nil {
		t.Error("negative DriftThreshold accepted")
	}
	cfg = testConfig(1<<20, 1000)
	cfg.HybridLR = 0.5 // enables the bridge
	lfo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lfo.shadow == nil {
		t.Error("HybridLR > 0 did not enable the shadow learner")
	}
}

// scenarioTraces builds the three evaluation scenarios at unit-test
// scale: a stationary web mix, the CDN mix with its built-in drift
// events, and a web mix whose popular set reshuffles cold mid-trace.
func scenarioTraces(t *testing.T, n int, seed int64) map[string]*trace.Trace {
	t.Helper()
	out := make(map[string]*trace.Trace, 3)
	for name, cfg := range map[string]gen.Config{
		"stable":    gen.WebMix(n, seed),
		"cdn-drift": gen.CDNMix(n, seed),
		"reshuffle": func() gen.Config {
			c := gen.WebMix(n, seed)
			c.Drift = append(c.Drift, gen.DriftEvent{At: 0.5, Class: 0, NewWeight: 1, Reshuffle: true})
			return c
		}(),
	} {
		tr, err := gen.Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = tr.WithCosts(trace.ObjectiveBHR)
	}
	return out
}

// TestHybridZeroLRMatchesFrozen pins that the bias is all the bridge
// modulates: a cache built with the bridge, whose learning rate is then
// zeroed before its first request, logs the decisions of the frozen-GBDT
// path on all three scenarios. The shadow learner runs, the bias table is
// consulted — and adds exactly 0.0 to every score.
func TestHybridZeroLRMatchesFrozen(t *testing.T) {
	for name, tr := range scenarioTraces(t, 2000, 42) {
		t.Run(name, func(t *testing.T) {
			frozen, err := New(testConfig(1<<20, 1000))
			if err != nil {
				t.Fatal(err)
			}
			hcfg := testConfig(1<<20, 1000)
			hcfg.HybridLR = 0.5
			hybrid, err := New(hcfg)
			if err != nil {
				t.Fatal(err)
			}
			hybrid.cfg.HybridLR = 0 // the machinery stays, the modulation goes
			for i, r := range tr.Requests {
				a, b := frozen.Request(r), hybrid.Request(r)
				if a != b {
					t.Fatalf("decision %d diverged: frozen=%v hybrid(lr=0)=%v", i, a, b)
				}
			}
			if frozen.Windows() != hybrid.Windows() {
				t.Errorf("windows diverged: %d vs %d", frozen.Windows(), hybrid.Windows())
			}
		})
	}
}

// TestHybridBiasAdaptsAndResets: with a positive learning rate the bias
// table moves away from zero between retrains, and a model deploy hands
// the state back — every class resets to zero.
func TestHybridBiasAdaptsAndResets(t *testing.T) {
	tr := webTrace(t, 2000, 7)
	cfg := testConfig(1<<20, 1000)
	cfg.HybridLR = 0.05
	lfo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First window trains and deploys at request 1000; drive halfway into
	// the second window so the bias has a deployed model to adapt against.
	for _, r := range tr.Requests[:1500] {
		lfo.Request(r)
	}
	if lfo.Windows() != 1 {
		t.Fatalf("Windows = %d, want 1", lfo.Windows())
	}
	moved := false
	for _, b := range lfo.bias {
		if b != 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("bias table still all-zero mid-window with HybridLR > 0")
	}
	// Crossing the second boundary retrains and deploys: reset.
	for _, r := range tr.Requests[1500:2000] {
		lfo.Request(r)
	}
	if lfo.Windows() != 2 {
		t.Fatalf("Windows = %d, want 2", lfo.Windows())
	}
	for c, b := range lfo.bias {
		if b != 0 {
			t.Errorf("bias[%d] = %v after deploy, want 0", c, b)
		}
	}
}

// driftTrace hand-builds a trace whose feature distribution shifts
// sharply at the given request index: object sizes jump by a factor of
// 64, which moves the size feature six log2 bins.
func driftTrace(n, shiftAt int) []trace.Request {
	reqs := make([]trace.Request, n)
	for i := range reqs {
		size := int64(1 << 10)
		if i >= shiftAt {
			size = 1 << 16
		}
		reqs[i] = trace.Request{
			Time: int64(i),
			ID:   trace.ObjectID(i % 200),
			Size: size,
			Cost: float64(size),
		}
	}
	return reqs
}

// TestEarlyRetrainTrigger: a sharp distribution shift mid-window fires
// the trigger well before the boundary, the retrain is counted in obs,
// and the drift gauges expose the statistic that fired it. The shift
// lands in window 3 because the trigger only arms once both the
// reference and the live side are past the cold-start window.
func TestEarlyRetrainTrigger(t *testing.T) {
	const window = 4000
	shiftAt := 2*window + window/4
	reqs := driftTrace(3*window, shiftAt)
	cfg := testConfig(1<<26, window)
	cfg.DriftThreshold = 0.25
	cfg.DriftCheckEvery = 200
	reg := obs.NewRegistry()
	cfg.Obs = reg
	lfo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fired := -1
	for i, r := range reqs {
		lfo.Request(r)
		if fired < 0 && lfo.EarlyRetrains() > 0 {
			fired = i
			// Read the gauges at fire time: they hold the statistic that
			// crossed the threshold (later checks overwrite them with the
			// post-adaptation PSI, which correctly decays back toward 0).
			if max := reg.Gauge("core_drift_psi_max_micro").Value(); max <= 250000 {
				t.Errorf("core_drift_psi_max_micro = %d at fire time, want > 250000", max)
			}
			if sizePSI := reg.Gauge("core_drift_psi_size_micro").Value(); sizePSI <= 250000 {
				t.Errorf("core_drift_psi_size_micro = %d at fire time, want > 250000 (size is the shifted feature)", sizePSI)
			}
		}
	}
	if fired < 0 {
		t.Fatal("64x size shift never fired the early-retrain trigger")
	}
	if fired <= shiftAt || fired >= 3*window-1 {
		t.Fatalf("trigger fired at request %d, want after the shift at %d and before the window boundary at %d",
			fired, shiftAt, 3*window)
	}
	if lfo.Windows() < 3 {
		t.Fatalf("Windows = %d, want >= 3 (two boundaries + early)", lfo.Windows())
	}
	if got := reg.Counter("core_early_retrains_total").Value(); got != int64(lfo.EarlyRetrains()) {
		t.Errorf("core_early_retrains_total = %d, want %d", got, lfo.EarlyRetrains())
	}
}

// TestEarlyRetrainStableTraceQuiet: on a stationary stream the trigger
// must not fire — the same-distribution PSI stays under the threshold.
func TestEarlyRetrainStableTraceQuiet(t *testing.T) {
	tr := webTrace(t, 4000, 11)
	cfg := testConfig(1<<20, 1000)
	cfg.DriftThreshold = 0.25
	cfg.DriftCheckEvery = 200
	lfo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Requests {
		lfo.Request(r)
	}
	if lfo.EarlyRetrains() != 0 {
		t.Errorf("EarlyRetrains = %d on a stationary trace, want 0", lfo.EarlyRetrains())
	}
	if lfo.Windows() != 4 {
		t.Errorf("Windows = %d, want 4 boundary retrains", lfo.Windows())
	}
}

// TestEarlyRetrainAwaitsRoundInFlight: with a deploy lag past the
// trigger's quarter-window floor, a drift trigger can fire while the
// previous boundary's round is still in flight. The early close deploys
// that round first and then launches its own — never a second concurrent
// round, never a suppressed trigger, never a dropped window. Run under
// -race by scripts/check.sh.
func TestEarlyRetrainAwaitsRoundInFlight(t *testing.T) {
	const window, lag = 4000, 2000
	shiftAt := 2*window + window/4
	reqs := driftTrace(4*window, shiftAt)
	cfg := testConfig(1<<26, window)
	cfg.DeployLag = lag
	cfg.DriftThreshold = 0.25
	cfg.DriftCheckEvery = 200
	reg := obs.NewRegistry()
	cfg.Obs = reg
	lfo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fired := -1
	for i, r := range reqs {
		inFlight, w := lfo.round != nil, lfo.Windows()
		lfo.Request(r)
		if fired >= 0 || lfo.EarlyRetrains() == 0 {
			continue
		}
		fired = i
		if !inFlight || lfo.Windows() != w+1 || lfo.round == nil {
			t.Fatalf("request %d fired the trigger with a round in flight = %v, deployed %d rounds and left one in flight = %v; want true, 1, true",
				i, inFlight, lfo.Windows()-w, lfo.round != nil)
		}
	}
	if fired < 0 {
		t.Fatal("the size shift never fired the trigger")
	}
	lfo.Close()
	if got := reg.Counter("core_retrains_total").Value(); int64(lfo.Windows()) != got {
		t.Errorf("Windows = %d, core_retrains_total = %d", lfo.Windows(), got)
	}
	if got := reg.Counter("core_early_retrains_total").Value(); got != int64(lfo.EarlyRetrains()) {
		t.Errorf("core_early_retrains_total = %d, want %d", got, lfo.EarlyRetrains())
	}
	if g := reg.Gauge("core_window_lag").Value(); g != 0 {
		t.Errorf("core_window_lag = %d after Close, want 0", g)
	}
}

// TestHybridBiasHistogramRecorded: the per-request applied bias lands in
// the obs histogram once a model is serving.
func TestHybridBiasHistogramRecorded(t *testing.T) {
	tr := webTrace(t, 1500, 3)
	cfg := testConfig(1<<20, 1000)
	cfg.HybridLR = 0.05
	reg := obs.NewRegistry()
	cfg.Obs = reg
	lfo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Requests {
		lfo.Request(r)
	}
	h := reg.Histogram("core_hybrid_bias_micro", HybridBiasBounds)
	if h.Count() != 500 {
		t.Errorf("bias histogram count = %d, want 500 (one per post-bootstrap request)", h.Count())
	}
}
