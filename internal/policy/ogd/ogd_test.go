package ogd

import (
	"testing"

	"lfo/internal/gen"
	"lfo/internal/trace"
)

func webTrace(t testing.TB, n int, seed int64) *trace.Trace {
	t.Helper()
	tr, err := gen.Generate(gen.WebMix(n, seed))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return tr
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero capacity", Config{}},
		{"negative capacity", Config{CacheSize: -1}},
		{"negative eta", Config{CacheSize: 1 << 20, Eta: -0.1}},
		{"threshold above one", Config{CacheSize: 1 << 20, RoundThreshold: 1.5}},
		{"negative threshold", Config{CacheSize: 1 << 20, RoundThreshold: -0.5}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted invalid config %+v", tc.name, tc.cfg)
		}
		if _, err := NewLearner(tc.cfg); err == nil {
			t.Errorf("%s: NewLearner accepted invalid config %+v", tc.name, tc.cfg)
		}
	}
	if _, err := New(Config{CacheSize: 1 << 20}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestGradientStepAndRounding pins the core dynamics: with Eta 0.25 and
// threshold 0.5 under byte-hit costs, the second request to an object
// (absent capacity pressure) crosses the threshold and admits it, so the
// third is a hit.
func TestGradientStepAndRounding(t *testing.T) {
	c, err := New(Config{CacheSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	r := trace.Request{ID: 7, Size: 1 << 10, Cost: 1 << 10}
	want := []bool{false, false, true, true}
	for i, w := range want {
		if got := c.Request(r); got != w {
			t.Fatalf("request %d: hit = %v, want %v (y=%v)", i, got, w, c.Learner().Y(r.ID))
		}
	}
	if y := c.Learner().Y(7); y != 1 {
		t.Errorf("after 4 requests y = %v, want saturated at 1", y)
	}
}

// TestCostlessFallback: a trace without costs behaves as cost == size.
func TestCostlessFallback(t *testing.T) {
	withCost, _ := NewLearner(Config{CacheSize: 1 << 20})
	costless, _ := NewLearner(Config{CacheSize: 1 << 20})
	a := withCost.Update(trace.Request{ID: 1, Size: 2048, Cost: 2048})
	b := costless.Update(trace.Request{ID: 1, Size: 2048})
	if a != b {
		t.Errorf("costless update y = %v, want %v (cost==size fallback)", b, a)
	}
}

// TestProjectionInvariants drives the learner well past capacity and
// checks the feasibility invariant Σ sᵢ·yᵢ ≤ C after every update, and
// that allocations stay in [0,1].
func TestProjectionInvariants(t *testing.T) {
	const capacity = 64 << 10
	l, err := NewLearner(Config{CacheSize: capacity})
	if err != nil {
		t.Fatal(err)
	}
	tr := webTrace(t, 20000, 42)
	for i, r := range tr.Requests {
		y := l.Update(r)
		if y < 0 || y > 1 {
			t.Fatalf("request %d: y = %v out of [0,1]", i, y)
		}
		if l.Mass() > capacity*1.000001 {
			t.Fatalf("request %d: mass %v exceeds capacity %d", i, l.Mass(), capacity)
		}
	}
	if l.Tracked() == 0 {
		t.Fatal("learner tracked nothing over a 20k-request trace")
	}
}

// TestCacheCapacity drives the integral cache on a trace whose working
// set far exceeds capacity and checks the store never overflows.
func TestCacheCapacity(t *testing.T) {
	const capacity = 256 << 10
	c, err := New(Config{CacheSize: capacity})
	if err != nil {
		t.Fatal(err)
	}
	tr := webTrace(t, 30000, 7)
	hits := 0
	for _, r := range tr.Requests {
		if c.Request(r) {
			hits++
		}
		if c.Residents().Store.Used() > capacity {
			t.Fatalf("store used %d bytes over capacity %d", c.Residents().Store.Used(), capacity)
		}
	}
	if hits == 0 {
		t.Error("OGD cache scored zero hits on a Zipf-skewed trace")
	}
	if c.Residents().Store.Len() == 0 {
		t.Error("OGD cache ended with zero residents")
	}
}

// TestOversizedObjectSkipped: an object larger than the whole cache must
// never be admitted (and must not panic the store).
func TestOversizedObjectSkipped(t *testing.T) {
	c, err := New(Config{CacheSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	r := trace.Request{ID: 1, Size: 1 << 20, Cost: 1 << 20}
	for i := 0; i < 10; i++ {
		if c.Request(r) {
			t.Fatal("oversized object reported as hit")
		}
	}
	if c.Residents().Store.Len() != 0 {
		t.Fatalf("oversized object admitted (%d residents)", c.Residents().Store.Len())
	}
}

// decisions runs the policy over a trace and returns the hit/miss log.
func decisions(t *testing.T, c *Cache, tr *trace.Trace) []bool {
	t.Helper()
	out := make([]bool, len(tr.Requests))
	for i, r := range tr.Requests {
		out[i] = c.Request(r)
	}
	return out
}

// TestDeterministicReruns: the full decision log is identical across
// independent instances on the same trace — the policy has no hidden
// state, clock, or randomness.
func TestDeterministicReruns(t *testing.T) {
	tr := webTrace(t, 20000, 42)
	cfg := Config{CacheSize: 512 << 10}
	a, _ := New(cfg)
	b, _ := New(cfg)
	da, db := decisions(t, a, tr), decisions(t, b, tr)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("decision %d differs across reruns: %v vs %v", i, da[i], db[i])
		}
	}
	if a.Learner().Mass() != b.Learner().Mass() {
		t.Errorf("final mass differs: %v vs %v", a.Learner().Mass(), b.Learner().Mass())
	}
}
