package core

import (
	"testing"

	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/gen"
	"lfo/internal/obs"
	"lfo/internal/opt"
	"lfo/internal/policy"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// testConfig returns a small, fast configuration for unit tests.
func testConfig(cacheSize int64, window int) Config {
	return Config{
		CacheSize:  cacheSize,
		WindowSize: window,
		OPT:        opt.Config{Algorithm: opt.AlgoFlow},
	}
}

// lruPolicy is the LRU baseline of the policy table.
func lruPolicy(t *testing.T, capacity int64) sim.Policy {
	t.Helper()
	p, err := policy.New("lru", capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func webTrace(t *testing.T, n int, seed int64) *trace.Trace {
	t.Helper()
	tr, err := gen.Generate(gen.WebMix(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return tr.WithCosts(trace.ObjectiveBHR)
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero CacheSize accepted")
	}
	cfg := testConfig(1<<20, 1000)
	cfg.GBDT.NumIterations = -1
	if _, err := New(cfg); err == nil {
		t.Error("invalid GBDT params accepted")
	}
}

// TestNegativeSizesRejected: a negative window, tracker bound, drift
// cadence or deploy lag is an error, not silently a default; 0 keeps meaning
// the default. A lag of a whole window is an error too: the round would
// deploy after the next boundary.
func TestNegativeSizesRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*Config, int)
	}{
		{"WindowSize", func(c *Config, v int) { c.WindowSize = v }},
		{"MaxTrackedObjects", func(c *Config, v int) { c.MaxTrackedObjects = v }},
		{"DriftCheckEvery", func(c *Config, v int) { c.DriftCheckEvery = v }},
		{"DeployLag", func(c *Config, v int) { c.DeployLag = v }},
	} {
		for _, v := range []int{-1, 0} {
			cfg := testConfig(1<<20, 1000)
			c.set(&cfg, v)
			_, err := New(cfg)
			if ok := v == 0; ok != (err == nil) {
				t.Errorf("%s %d: err = %v", c.name, v, err)
			}
		}
	}
	for _, lag := range []int{999, 1000} {
		cfg := testConfig(1<<20, 1000)
		cfg.DeployLag = lag
		_, err := New(cfg)
		if ok := lag < 1000; ok != (err == nil) {
			t.Errorf("DeployLag %d of a 1000-request window: err = %v", lag, err)
		}
	}
}

func TestCutoffDefaultsAndSentinel(t *testing.T) {
	// Regression: withDefaults used to treat Cutoff <= 0 as unset, which
	// made the admit-all ablation (cutoff exactly 0) unconfigurable and
	// silently mapped negative cutoffs to 0.5.
	mk := func(cutoff float64) (*LFO, error) {
		cfg := testConfig(1<<20, 1000)
		cfg.Cutoff = cutoff
		return New(cfg)
	}

	lfo, err := mk(0) // zero value: unset, defaults to 0.5
	if err != nil {
		t.Fatal(err)
	}
	if lfo.cfg.Cutoff != 0.5 {
		t.Errorf("unset cutoff = %v, want 0.5", lfo.cfg.Cutoff)
	}

	lfo, err = mk(CutoffAdmitAll) // sentinel: effective cutoff exactly 0
	if err != nil {
		t.Fatal(err)
	}
	if lfo.cfg.Cutoff != 0 {
		t.Errorf("CutoffAdmitAll cutoff = %v, want 0", lfo.cfg.Cutoff)
	}

	lfo, err = mk(0.25) // explicit in-range value passes through
	if err != nil {
		t.Fatal(err)
	}
	if lfo.cfg.Cutoff != 0.25 {
		t.Errorf("explicit cutoff = %v, want 0.25", lfo.cfg.Cutoff)
	}

	for _, bad := range []float64{-0.3, -2, 1.5} {
		if _, err := mk(bad); err == nil {
			t.Errorf("cutoff %v accepted, want error", bad)
		}
	}
}

// handoffReport is what the registry says about the window handoff that
// just deployed: the gauges of that window and the cumulative counters.
type handoffReport struct {
	requests, agreementPPM, positivePPM int64
	flowIvs, greedyIvs                  int64
}

func readHandoff(reg *obs.Registry) handoffReport {
	return handoffReport{
		requests:     reg.Gauge("core_window_requests").Value(),
		agreementPPM: reg.Gauge("core_train_agreement_ppm").Value(),
		positivePPM:  reg.Gauge("core_label_positive_ppm").Value(),
		flowIvs:      reg.Counter("opt_flow_intervals_total").Value(),
		greedyIvs:    reg.Counter("opt_greedy_intervals_total").Value(),
	}
}

func TestLFOTrainsAndServes(t *testing.T) {
	tr := webTrace(t, 12000, 1)
	cfg := testConfig(2<<20, 4000)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	lfo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each handoff's report, read as Windows() advances and pinned exactly.
	// Every window is one exact sweep, since the costs are BHR, so no
	// greedy interval is counted.
	want := []handoffReport{
		{requests: 4000, agreementPPM: 883500, positivePPM: 326500, flowIvs: 1525},
		{requests: 4000, agreementPPM: 935500, positivePPM: 321750, flowIvs: 1525 + 1499},
		{requests: 4000, agreementPPM: 938750, positivePPM: 334250, flowIvs: 1525 + 1499 + 1534},
	}
	var got []handoffReport
	hits := 0
	for _, r := range tr.Requests {
		w := lfo.Windows()
		if lfo.Request(r) {
			hits++
		}
		if lfo.Windows() != w {
			got = append(got, readHandoff(reg))
		}
	}
	if lfo.Model() == nil {
		t.Fatal("no model after three windows")
	}
	if len(got) != len(want) {
		t.Fatalf("Windows advanced %d times, want %d", len(got), len(want))
	}
	for w := range want {
		if got[w] != want[w] {
			t.Errorf("window %d: registry reports %+v, want %+v", w, got[w], want[w])
		}
	}
	if hits == 0 {
		t.Error("LFO scored zero hits")
	}
}

func TestLFOBeatsLRUOnSkewedTrace(t *testing.T) {
	// The paper's headline (Fig 6): LFO outperforms LRU on BHR. Use a
	// small cache so admission control matters.
	tr := webTrace(t, 30000, 2)
	const capacity = 1 << 20
	lfo, err := New(testConfig(capacity, 5000))
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Warmup: 10000}
	lfoM := sim.Run(tr, lfo, opts)
	lruM := sim.Run(tr, lruPolicy(t, capacity), opts)
	if lfoM.BHR() <= lruM.BHR() {
		t.Errorf("LFO BHR %.4f <= LRU %.4f", lfoM.BHR(), lruM.BHR())
	}
}

func TestLFODeterministic(t *testing.T) {
	tr := webTrace(t, 9000, 3)
	run := func() *sim.Metrics {
		lfo, err := New(testConfig(1<<20, 3000))
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run(tr, lfo, sim.Options{})
	}
	a, b := run(), run()
	if a.Hits != b.Hits || a.HitBytes != b.HitBytes {
		t.Errorf("nondeterministic: %d/%d vs %d/%d", a.Hits, a.HitBytes, b.Hits, b.HitBytes)
	}
}

func TestLFOBootstrapActsAsLRU(t *testing.T) {
	// Before the first window completes, LFO admits everything with LRU
	// eviction — its hits must match plain LRU exactly.
	tr := webTrace(t, 3000, 4)
	lfo, err := New(testConfig(1<<20, 1<<30 /* never retrain */))
	if err != nil {
		t.Fatal(err)
	}
	a := sim.Run(tr, lfo, sim.Options{})
	b := sim.Run(tr, lruPolicy(t, 1<<20), sim.Options{})
	if a.Hits != b.Hits {
		t.Errorf("bootstrap hits %d != LRU hits %d", a.Hits, b.Hits)
	}
	if lfo.Windows() != 0 || lfo.Model() != nil {
		t.Error("model trained unexpectedly")
	}
}

func TestExtractAlignsLabelsAndFeatures(t *testing.T) {
	tr := webTrace(t, 4000, 5)
	cfg := testConfig(1<<20, 4000)
	ex, err := Extract(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Requests != 4000 || len(ex.Labels) != 4000 {
		t.Fatalf("Requests,Labels = %d,%d", ex.Requests, len(ex.Labels))
	}
	// Labels must match a direct OPT computation.
	optCfg := cfg.withDefaults().OPT
	res, err := opt.Compute(tr, optCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Admit {
		if res.Admit[i] != ex.Labels[i] {
			t.Fatalf("label %d mismatch", i)
		}
	}
	// Size feature must equal request size.
	for i, r := range tr.Requests {
		if got := ex.Rows.Row(i)[features.FeatSize]; got != float64(r.Size) {
			t.Fatalf("row %d size feature %g != %d", i, got, r.Size)
		}
	}
}

func TestTrainOnWindowAccuracy(t *testing.T) {
	// Paper §3 headline: LFO matches OPT on >93% of requests (their
	// trace). Require >85% on our synthetic mix, train window -> next
	// window, plus sane error structure.
	tr := webTrace(t, 16000, 6)
	cfg := testConfig(2<<20, 8000)
	model, _, err := TrainOnWindow(tr.Slice(0, 8000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	evalEx, err := Extract(tr.Slice(8000, 16000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := Evaluate(model, evalEx, 0.5)
	if acc := 1 - res.Error; acc < 0.85 {
		t.Errorf("next-window accuracy %.3f, want >= 0.85", acc)
	}
	if res.Positives+res.Negatives != evalEx.Requests {
		t.Error("positives+negatives != requests")
	}
}

func TestEvaluateCutoffMonotonicity(t *testing.T) {
	// Raising the cutoff can only decrease false positives and increase
	// false negatives (Fig 5a's two monotone curves).
	tr := webTrace(t, 12000, 7)
	cfg := testConfig(2<<20, 6000)
	model, _, err := TrainOnWindow(tr.Slice(0, 6000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Extract(tr.Slice(6000, 12000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prevFP, prevFN := 2.0, -1.0
	for _, cutoff := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		res := Evaluate(model, ex, cutoff)
		if res.FalsePositiveRate > prevFP+1e-12 {
			t.Errorf("cutoff %.1f: FP rate %.4f increased", cutoff, res.FalsePositiveRate)
		}
		if res.FalseNegativeRate < prevFN-1e-12 {
			t.Errorf("cutoff %.1f: FN rate %.4f decreased", cutoff, res.FalseNegativeRate)
		}
		prevFP, prevFN = res.FalsePositiveRate, res.FalseNegativeRate
	}
}

func TestLFOHitCanEvictHitObject(t *testing.T) {
	// §2.4: after a model is deployed, a hit whose re-evaluated
	// likelihood is below the cutoff evicts the object. Construct this
	// directly: train on a window, then find a resident object whose
	// likelihood dropped below the cutoff and check the store.
	tr := webTrace(t, 12000, 9)
	lfo, err := New(testConfig(1<<20, 3000))
	if err != nil {
		t.Fatal(err)
	}
	evictedOnHit := 0
	for _, r := range tr.Requests {
		before := lfo.res.Store.Has(r.ID)
		lfo.Request(r)
		if before && lfo.model != nil && !lfo.res.Store.Has(r.ID) {
			evictedOnHit++
		}
	}
	if lfo.Windows() == 0 {
		t.Fatal("never trained")
	}
	// On heavy-tailed traces some hit objects do get demoted below the
	// cutoff.
	if evictedOnHit == 0 {
		t.Error("no hit evicted the hit object")
	}
}

func TestDisableEvictOnHitKeepsResidents(t *testing.T) {
	tr := webTrace(t, 12000, 9)
	cfg := testConfig(1<<20, 3000)
	cfg.DisableEvictOnHit = true
	lfo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Requests {
		before := lfo.res.Store.Has(r.ID)
		hit := lfo.Request(r)
		if before != hit {
			t.Fatal("hit accounting inconsistent")
		}
		if before && !lfo.res.Store.Has(r.ID) {
			t.Fatal("hit object evicted despite DisableEvictOnHit")
		}
	}
}

func TestLFOAsyncTrainingDeploys(t *testing.T) {
	tr := webTrace(t, 20000, 12)
	cfg := testConfig(1<<20, 4000)
	cfg.DeployLag = 2000
	lfo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Run(tr, lfo, sim.Options{})
	lfo.Close()
	if lfo.Windows() != 5 {
		t.Fatalf("Windows = %d after Close, want all 5 boundaries deployed", lfo.Windows())
	}
	if lfo.Model() == nil {
		t.Fatal("no model after Close")
	}
	if m.Hits == 0 {
		t.Error("lagged LFO scored no hits")
	}
}

// TestAsyncDroppedWindowCounted: at the longest lag, DeployLag = W-1, no
// window is dropped. Every boundary's round deploys W-1 requests later (the
// last one at Close), the lag gauge reads 1 from each boundary to its deploy
// point and 0 after it, and each deploy carries its own window's report.
func TestAsyncDroppedWindowCounted(t *testing.T) {
	const window, lag = 1000, 999
	tr := webTrace(t, 4*window, 14)
	cfg := testConfig(1<<20, window)
	cfg.DeployLag = lag
	reg := obs.NewRegistry()
	cfg.Obs = reg
	lfo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []handoffReport
	for i, r := range tr.Requests {
		w := lfo.Windows()
		lfo.Request(r)
		if lfo.Windows() != w {
			got = append(got, readHandoff(reg))
		}
		n := i + 1 // requests served
		boundaries := n / window
		inFlight := int64(0)
		if boundaries > 0 && n%window < lag {
			inFlight = 1
		}
		if g := reg.Gauge("core_window_lag").Value(); g != inFlight {
			t.Fatalf("request %d: core_window_lag = %d, want %d", n, g, inFlight)
		}
		if retrains := reg.Counter("core_retrains_total").Value(); retrains != int64(boundaries)-inFlight {
			t.Fatalf("request %d: core_retrains_total = %d, want %d", n, retrains, int64(boundaries)-inFlight)
		}
	}
	w := lfo.Windows()
	lfo.Close()
	if lfo.Windows() != w+1 {
		t.Fatal("Close deployed nothing, with the last boundary's round in flight")
	}
	got = append(got, readHandoff(reg))
	if retrains := reg.Counter("core_retrains_total").Value(); retrains != 4 {
		t.Errorf("core_retrains_total = %d after Close, want the 4 boundaries crossed", retrains)
	}
	if g := reg.Gauge("core_window_lag").Value(); g != 0 {
		t.Errorf("core_window_lag = %d after Close, want 0", g)
	}
	// Window 2's report is the one the old asynchronous path pinned for the
	// round it trained after dropping window 1: the same labels and the
	// same agreement, its interval count now on top of window 1's 240.
	want := []handoffReport{
		{requests: 1000, agreementPPM: 889000, positivePPM: 239000, flowIvs: 240},
		{requests: 1000, agreementPPM: 933000, positivePPM: 236000, flowIvs: 240 + 263},
		{requests: 1000, agreementPPM: 959000, positivePPM: 237000, flowIvs: 503 + 238},
		{requests: 1000, agreementPPM: 963000, positivePPM: 229000, flowIvs: 741 + 230},
	}
	if len(got) != len(want) {
		t.Fatalf("%d deploys, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("deploy %d: registry reports %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestObsMetricsRecorded(t *testing.T) {
	tr := webTrace(t, 6000, 15)
	cfg := testConfig(1<<20, 2000)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	lfo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Run(tr, lfo, sim.Options{})
	if got := reg.Counter("core_requests_total").Value(); got != int64(len(tr.Requests)) {
		t.Errorf("core_requests_total = %d, want %d", got, len(tr.Requests))
	}
	if got := reg.Counter("core_hits_total").Value(); got != int64(m.Hits) {
		t.Errorf("core_hits_total = %d, want %d", got, m.Hits)
	}
	wantRetrains := int64(lfo.Windows())
	if got := reg.Counter("core_retrains_total").Value(); got != wantRetrains {
		t.Errorf("core_retrains_total = %d, want %d", got, wantRetrains)
	}
	for _, name := range []string{"core_retrain_opt_ns", "core_retrain_train_ns", "core_retrain_rescore_ns"} {
		if got := reg.Histogram(name, obs.LatencyBounds).Count(); got != wantRetrains {
			t.Errorf("%s count = %d, want %d", name, got, wantRetrains)
		}
	}
	// The window-boundary gauges: the trace ends on a boundary, so they
	// read what the cache holds now.
	for name, want := range map[string]int64{
		"core_tracked_objects": int64(lfo.tracker.Len()),
		"core_gap_rings":       int64(lfo.tracker.Rings()),
		"core_tracker_bytes":   lfo.tracker.Bytes(),
		"core_resident_bytes":  lfo.res.Store.Used(),
		// Both record buffers; at DeployLag 0 the spare never records.
		"core_window_record_bytes": lfo.winRows.Bytes() + lfo.spareRows.Bytes(),
	} {
		if got := reg.Gauge(name).Value(); got != want || want == 0 {
			t.Errorf("%s = %d, want %d (non-zero)", name, got, want)
		}
	}
	if ppm := reg.Gauge("core_label_positive_ppm").Value(); ppm <= 0 || ppm >= 1e6 {
		t.Errorf("core_label_positive_ppm = %d, want a share strictly between 0 and 1e6", ppm)
	}
	// The OPT solve counters propagate via the core config.
	if got := reg.Counter("opt_solves_total").Value(); got != wantRetrains {
		t.Errorf("opt_solves_total = %d, want %d", got, wantRetrains)
	}
}

func TestLFOCloseAtZeroLagIsNoop(t *testing.T) {
	lfo, err := New(testConfig(1<<20, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range webTrace(t, 1000, 16).Requests {
		lfo.Request(r)
	}
	if lfo.Windows() != 1 || lfo.round != nil {
		t.Fatalf("at DeployLag 0 the boundary left Windows = %d and a round in flight = %v", lfo.Windows(), lfo.round != nil)
	}
	lfo.Close() // must not block, panic or deploy
	if lfo.Windows() != 1 {
		t.Errorf("Close deployed at DeployLag 0: Windows = %d", lfo.Windows())
	}
}

func TestLFOInitialModelSkipsBootstrap(t *testing.T) {
	tr := webTrace(t, 12000, 13)
	// Train a model offline, then warm-start a fresh cache with it.
	model, _, err := TrainOnWindow(tr.Slice(0, 6000), testConfig(1<<20, 6000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1<<20, 1<<30) // never retrain
	cfg.InitialModel = model
	lfo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lfo.Model() == nil {
		t.Fatal("initial model not installed")
	}
	// The warm-started cache must behave differently from bootstrap LRU:
	// it applies learned admission from request one.
	warm := sim.Run(tr.Slice(6000, 12000), lfo, sim.Options{})
	cold, err := New(testConfig(1<<20, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	coldM := sim.Run(tr.Slice(6000, 12000), cold, sim.Options{})
	if warm.Hits == coldM.Hits && warm.HitBytes == coldM.HitBytes {
		t.Error("warm start indistinguishable from bootstrap")
	}
}

func TestLFOInitialModelDimChecked(t *testing.T) {
	cfg := testConfig(1<<20, 1000)
	cfg.InitialModel = &gbdt.Model{Dim: 3}
	if _, err := New(cfg); err == nil {
		t.Error("wrong-dim initial model accepted")
	}
}
