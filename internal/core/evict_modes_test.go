package core

import (
	"testing"

	"lfo/internal/evict"
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

// TestLearnedScoreCacheShare pins what the learned evictor's score cache is
// worth on the shape of the benchmark's evict_learned workload (web mix,
// 16 MiB, 5000-request windows, every miss admitted, sampler seed 1), two
// model-served windows: of the candidates a model-ranked pick samples at
// most 45 % go through the ranker (measured: about a third), the rest are
// answered from the residents' cached scores — and both counts repeat
// exactly, being a function of the trace and the seed alone.
func TestLearnedScoreCacheShare(t *testing.T) {
	tr, err := gen.Generate(gen.WebMix(3*5000, 7))
	if err != nil {
		t.Fatal(err)
	}
	run := func() (scored, hits int64) {
		reg := obs.NewRegistry()
		lfo, err := New(Config{CacheSize: 16 << 20, WindowSize: 5000, Workers: 1, Eviction: "learned", Seed: 1,
			Cutoff: CutoffAdmitAll, OPT: opt.Config{Algorithm: opt.AlgoGreedy}, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(tr, lfo, sim.Options{})
		if lfo.Windows() != 3 {
			t.Fatalf("Windows = %d, want 3", lfo.Windows())
		}
		return reg.Counter("evict_scored_rows_total").Value(), reg.Counter("evict_score_cache_hits_total").Value()
	}
	scored, hits := run()
	if ranked := scored + hits; scored == 0 || float64(scored) > 0.45*float64(ranked) {
		t.Errorf("the ranker scored %d of %d sampled candidates (%.1f %%), want at most 45 %%", scored, ranked, 100*float64(scored)/float64(ranked))
	}
	if s2, h2 := run(); s2 != scored || h2 != hits {
		t.Errorf("rerun scored %d rows and hit the score cache %d times, first run %d and %d", s2, h2, scored, hits)
	}
}
