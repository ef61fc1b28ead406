package core

import (
	"fmt"
	"testing"

	"lfo/internal/evict"
	"lfo/internal/gbdt"
	"lfo/internal/gen"
	"lfo/internal/obs"
	"lfo/internal/opt"
	"lfo/internal/sim"
)

func TestLFOEvictionModeValidated(t *testing.T) {
	cfg := testConfig(1<<20, 1000)
	cfg.Eviction = "clairvoyant"
	if _, err := New(cfg); err == nil {
		t.Error("unknown eviction mode accepted")
	}
}

func TestLFOEvictorNames(t *testing.T) {
	for mode, want := range map[string]string{
		"":        "LFO",
		"rank":    "LFO",
		"learned": "LFO+learned",
		"gdsf":    "LFO+gdsf",
		"lru":     "LFO+lru",
	} {
		cfg := testConfig(1<<20, 1000)
		cfg.Eviction = mode
		lfo, err := New(cfg)
		if err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
		if got := lfo.Name(); got != want {
			t.Errorf("mode %q: Name() = %q, want %q", mode, got, want)
		}
	}
}

func TestLFOEvictionModesServe(t *testing.T) {
	tr := webTrace(t, 12000, 11)
	for _, mode := range []string{"learned", "gdsf", "lru"} {
		cfg := testConfig(2<<20, 4000)
		cfg.Eviction = mode
		lfo, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		m := sim.Run(tr, lfo, sim.Options{})
		if m.Hits == 0 {
			t.Errorf("%s: zero hits", mode)
		}
		if lfo.Windows() != 3 {
			t.Errorf("%s: Windows = %d, want 3", mode, lfo.Windows())
		}
		if lfo.Model() == nil {
			t.Errorf("%s: no admission model after three windows", mode)
		}
		if mode == "learned" {
			l, ok := lfo.res.Evictor.(*evict.Learned)
			if !ok {
				t.Fatal("learned mode evictor is not *evict.Learned")
			}
			if l.Model() == nil {
				t.Error("learned: no eviction ranker deployed after three windows")
			}
		}
	}
}

// TestLFOInvariantsEveryEvictionMode holds LFO in every eviction mode, with
// and without the hybrid bias, to the cache-state invariants after every
// request of a CDN and a web trace: the residents fit the capacity, a hit is
// returned exactly when the object was resident before the request, Used is
// the sum of the sizes the store's dense index reaches, and a queue or list
// evictor tracks exactly the residents. The windows are short, so every
// cell evicts under the bootstrap and under deployed models, and the learned
// cells rank candidates with their ranker.
func TestLFOInvariantsEveryEvictionMode(t *testing.T) {
	const window = 1500
	for _, mix := range []struct {
		name string
		gen  func(int, int64) gen.Config
		size int64
	}{
		{"cdn", gen.CDNMix, 64 << 20},
		{"web", gen.WebMix, 1 << 20},
	} {
		tr, err := gen.Generate(mix.gen(3*window, 19))
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range evict.Kinds() {
			for _, lr := range []float64{0, 0.05} {
				t.Run(fmt.Sprintf("%s/%s/hybrid-%v", mix.name, kind, lr), func(t *testing.T) {
					reg := obs.NewRegistry()
					cfg := Config{CacheSize: mix.size, WindowSize: window, Eviction: kind, HybridLR: lr, Seed: 3, Workers: 1,
						OPT: opt.Config{Algorithm: opt.AlgoGreedy}, Obs: reg}
					cfg.GBDT = gbdt.DefaultParams()
					cfg.GBDT.NumIterations = 10 // the grid runs under -race too
					lfo, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					store := lfo.res.Store
					tracked, isTracked := lfo.res.Evictor.(interface{ Len() int })
					victims, boot := reg.Counter("evict_victims_total"), int64(-1)
					for i, r := range tr.Requests {
						resident := store.Has(r.ID)
						if hit := lfo.Request(r); hit != resident {
							t.Fatalf("request %d (id %d): hit=%v but resident before the call=%v", i, r.ID, hit, resident)
						}
						if store.Used() > store.Capacity() {
							t.Fatalf("request %d: %d bytes resident in a cache of %d", i, store.Used(), store.Capacity())
						}
						var sum int64
						for j := 0; j < store.Len(); j++ {
							sum += store.At(j).Size
						}
						if sum != store.Used() {
							t.Fatalf("request %d: the dense index reaches %d bytes, Used is %d", i, sum, store.Used())
						}
						if isTracked && tracked.Len() != store.Len() {
							t.Fatalf("request %d: the %s evictor tracks %d objects, the store holds %d", i, kind, tracked.Len(), store.Len())
						}
						if boot < 0 && lfo.Windows() == 1 {
							boot = victims.Value()
						}
					}
					if boot <= 0 || victims.Value() == boot {
						t.Errorf("%d victims under the bootstrap, %d under models", boot, victims.Value()-boot)
					}
					if kind == "learned" && reg.Counter("evict_scored_rows_total").Value() == 0 {
						t.Error("the learned evictor never ranked a candidate with its ranker")
					}
				})
			}
		}
	}
}

// TestLFOLearnedEvictionDeterministic pins the acceptance requirement:
// LFO+learned is byte-identical across reruns and Workers values (the
// sampled-candidate stream is seeded, and both models train from
// fixed-order reductions).
func TestLFOLearnedEvictionDeterministic(t *testing.T) {
	tr := webTrace(t, 9000, 12)
	run := func(workers int) *sim.Metrics {
		cfg := testConfig(1<<20, 3000)
		cfg.Eviction = "learned"
		cfg.Seed = 7
		cfg.Workers = workers
		lfo, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run(tr, lfo, sim.Options{})
	}
	a, b, c := run(1), run(1), run(4)
	if a.Hits != b.Hits || a.HitBytes != b.HitBytes {
		t.Errorf("rerun differs: %d/%d vs %d/%d", a.Hits, a.HitBytes, b.Hits, b.HitBytes)
	}
	if a.Hits != c.Hits || a.HitBytes != c.HitBytes {
		t.Errorf("workers=4 differs: %d/%d vs %d/%d", a.Hits, a.HitBytes, c.Hits, c.HitBytes)
	}
}

// TestLFOBootstrapLRUModeMatchesLRU pins the delegated-evictor bootstrap:
// before the first window, admit-all plus the lru evictor must reproduce
// plain LRU hit-for-hit (the rank-mode analogue is
// TestLFOBootstrapActsAsLRU).
func TestLFOBootstrapLRUModeMatchesLRU(t *testing.T) {
	tr := webTrace(t, 3000, 13)
	cfg := testConfig(1<<20, 1<<30 /* never retrain */)
	cfg.Eviction = "lru"
	lfo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := sim.Run(tr, lfo, sim.Options{})
	b := sim.Run(tr, lruPolicy(t, 1<<20), sim.Options{})
	if a.Hits != b.Hits || a.HitBytes != b.HitBytes {
		t.Errorf("lru mode bootstrap %d/%d != LRU %d/%d", a.Hits, a.HitBytes, b.Hits, b.HitBytes)
	}
}

func TestLFOLearnedEvictionAsyncDeploys(t *testing.T) {
	tr := webTrace(t, 12000, 14)
	cfg := testConfig(2<<20, 3000)
	cfg.Eviction = "learned"
	cfg.DeployLag = 1500
	lfo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(tr, lfo, sim.Options{})
	lfo.Close()
	if lfo.Windows() != 4 {
		t.Fatalf("Windows = %d after Close, want all 4 boundaries deployed", lfo.Windows())
	}
	if lfo.res.Evictor.(*evict.Learned).Model() == nil {
		t.Error("lagged round deployed no eviction ranker")
	}
}

func TestLFOEvictionObsMetrics(t *testing.T) {
	tr := webTrace(t, 9000, 15)
	reg := obs.NewRegistry()
	cfg := testConfig(1<<20, 3000)
	cfg.Eviction = "learned"
	cfg.Obs = reg
	lfo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(tr, lfo, sim.Options{})
	snap := reg.Snapshot()
	counters := make(map[string]int64, len(snap.Counters))
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for _, name := range []string{
		"evict_victims_total",
		"evict_candidate_sets_total",
		"evict_candidates_total",
		"evict_scored_rows_total",
		"evict_carried_rows_total",
		"evict_score_cache_hits_total",
		"evict_model_swaps_total",
	} {
		if counters[name] == 0 {
			t.Errorf("counter %s = 0, want > 0", name)
		}
	}
	found := false
	for _, h := range snap.Histograms {
		if h.Name == "core_retrain_evict_train_ns" && h.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Error("core_retrain_evict_train_ns histogram recorded no samples")
	}
}

// TestLearnedScoreCacheShare pins what the learned evictor's score cache
// and carried scores are worth on the shape of the benchmark's
// evict_learned workload (web mix, 16 MiB, 5000-request windows, every miss
// admitted, sampler seed 1), two model-served windows: every candidate a
// model-ranked pick samples is scored in full, advanced from its lapsed
// score, or answered from the score cache, and at most 10 % are scored in
// full (measured: about 3 %); all three counts repeat exactly, being a
// function of the trace and the seed alone.
func TestLearnedScoreCacheShare(t *testing.T) {
	tr, err := gen.Generate(gen.WebMix(3*5000, 7))
	if err != nil {
		t.Fatal(err)
	}
	type counts struct{ candidates, scored, carried, hits int64 }
	run := func() counts {
		reg := obs.NewRegistry()
		lfo, err := New(Config{CacheSize: 16 << 20, WindowSize: 5000, Workers: 1, Eviction: "learned", Seed: 1,
			Cutoff: CutoffAdmitAll, OPT: opt.Config{Algorithm: opt.AlgoGreedy}, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		// The bootstrap's picks sample candidates too: those counted
		// before the first ranker deploys are not the model's.
		candidates, boot := reg.Counter("evict_candidates_total"), int64(-1)
		for _, r := range tr.Requests {
			lfo.Request(r)
			if boot < 0 && lfo.Windows() == 1 {
				boot = candidates.Value()
			}
		}
		if lfo.Windows() != 3 {
			t.Fatalf("Windows = %d, want 3", lfo.Windows())
		}
		return counts{
			candidates: candidates.Value() - boot,
			scored:     reg.Counter("evict_scored_rows_total").Value(),
			carried:    reg.Counter("evict_carried_rows_total").Value(),
			hits:       reg.Counter("evict_score_cache_hits_total").Value(),
		}
	}
	c := run()
	if c.scored+c.carried+c.hits != c.candidates {
		t.Errorf("%d scored + %d carried + %d score-cache hits, but %d candidates", c.scored, c.carried, c.hits, c.candidates)
	}
	if c.scored == 0 || c.carried == 0 || float64(c.scored) > 0.10*float64(c.candidates) {
		t.Errorf("the ranker scored %d of %d sampled candidates in full (%.1f %%) and carried %d, want at most 10 %% and some carried",
			c.scored, c.candidates, 100*float64(c.scored)/float64(c.candidates), c.carried)
	}
	if c2 := run(); c2 != c {
		t.Errorf("rerun counted %+v, first run %+v", c2, c)
	}
}
