package lfo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"lfo/internal/core"
	"lfo/internal/evict"
	"lfo/internal/gbdt"
	"lfo/internal/gen"
	"lfo/internal/opt"
	"lfo/internal/trace"
)

// runSeededPipeline executes the full window pipeline — synthetic trace
// generation, OPT labeling, online feature tracking, GBDT training, and
// simulation — from a fixed seed with the given worker count and deploy lag
// and returns every stage's result in serialized form.
func runSeededPipeline(t *testing.T, workers, lag int) (traceBytes, optBytes, modelBytes, metricBytes []byte) {
	t.Helper()
	return runSeededPipelineObs(t, workers, lag, nil)
}

// pipelineLags are the deploy lags the determinism tests run at: the
// boundary itself, and a third of the 3000-request window.
var pipelineLags = []int{0, 1000}

// runSeededPipelineObs is runSeededPipeline with an optional metrics
// registry wired through every stage that accepts one.
func runSeededPipelineObs(t *testing.T, workers, lag int, reg *MetricsRegistry) (traceBytes, optBytes, modelBytes, metricBytes []byte) {
	t.Helper()

	tr, err := GenerateCDNMix(8000, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(ObjectiveBHR)
	var traceBuf bytes.Buffer
	if err := WriteTrace(&traceBuf, tr); err != nil {
		t.Fatal(err)
	}

	res, err := ComputeOPT(tr, OPTConfig{CacheSize: 8 << 20, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	opt := make([]byte, len(res.Admit))
	for i, a := range res.Admit {
		if a {
			opt[i] = 1
		}
	}

	cache, err := NewCache(CacheConfig{CacheSize: 8 << 20, WindowSize: 3000, DeployLag: lag, Workers: workers, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	m := Simulate(tr, cache, SimOptions{Warmup: 2000, Obs: reg})
	cache.Close()
	if cache.Model() == nil {
		t.Fatal("pipeline never trained a model")
	}
	var modelBuf bytes.Buffer
	if err := cache.Model().Save(&modelBuf); err != nil {
		t.Fatal(err)
	}

	metrics := make([]byte, 0, 3*8)
	metrics = binary.LittleEndian.AppendUint64(metrics, math.Float64bits(m.BHR()))
	metrics = binary.LittleEndian.AppendUint64(metrics, math.Float64bits(m.OHR()))
	metrics = binary.LittleEndian.AppendUint64(metrics, uint64(m.Requests))

	return traceBuf.Bytes(), opt, modelBuf.Bytes(), metrics
}

// TestPipelineDeterminism runs the complete gen → OPT → features → train →
// simulate pipeline twice with the same seed and requires byte-identical
// results at every stage — the reproducibility property lfolint's
// determinism rules exist to protect. A diff in traceBytes points at gen,
// in optBytes at opt, in modelBytes at features/gbdt, and in
// metricBytes at core/sim.
func TestPipelineDeterminism(t *testing.T) {
	var served [][]byte // each lag's metrics
	for _, lag := range pipelineLags {
		tr1, opt1, model1, met1 := runSeededPipeline(t, 1, lag)
		served = append(served, met1)
		tr2, opt2, model2, met2 := runSeededPipeline(t, 1, lag)

		if !bytes.Equal(tr1, tr2) {
			t.Errorf("lag=%d: generated traces differ between identically seeded runs", lag)
		}
		if !bytes.Equal(opt1, opt2) {
			t.Errorf("lag=%d: OPT decisions differ between identically seeded runs", lag)
		}
		if !bytes.Equal(model1, model2) {
			t.Errorf("lag=%d: serialized models differ between identically seeded runs", lag)
		}
		if !bytes.Equal(met1, met2) {
			t.Errorf("lag=%d: simulation metrics differ between identically seeded runs", lag)
		}
	}
	// Guard against a lag that is silently ignored: serving the first
	// requests of a window on the outgoing model changes the hits.
	if bytes.Equal(served[0], served[1]) {
		t.Error("DeployLag 1000 served exactly what DeployLag 0 served")
	}
}

// TestObsCountersDeterministic guards the observability layer's
// non-interference contract: wiring a metrics registry through every
// pipeline stage must leave each stage's bytes identical to the
// uninstrumented run, and all count-valued metrics must themselves be
// deterministic (durations, of course, are not — only histogram
// observation counts are compared).
func TestObsCountersDeterministic(t *testing.T) {
	base1, base2, base3, base4 := runSeededPipeline(t, 1, 0)

	regA := NewMetricsRegistry()
	a1, a2, a3, a4 := runSeededPipelineObs(t, 1, 0, regA)
	for i, pair := range [][2][]byte{{base1, a1}, {base2, a2}, {base3, a3}, {base4, a4}} {
		if !bytes.Equal(pair[0], pair[1]) {
			t.Errorf("stage %d: instrumented run differs from uninstrumented run", i)
		}
	}

	regB := NewMetricsRegistry()
	runSeededPipelineObs(t, 1, 0, regB)
	sa, sb := regA.Snapshot(), regB.Snapshot()
	if len(sa.Counters) == 0 {
		t.Fatal("instrumented run recorded no counters")
	}
	if len(sa.Counters) != len(sb.Counters) {
		t.Fatalf("counter sets differ: %d vs %d", len(sa.Counters), len(sb.Counters))
	}
	for i := range sa.Counters {
		if sa.Counters[i] != sb.Counters[i] {
			t.Errorf("counter %s: %d vs %s: %d across identical runs",
				sa.Counters[i].Name, sa.Counters[i].Value, sb.Counters[i].Name, sb.Counters[i].Value)
		}
	}
	recorded := false
	for i := range sa.Gauges {
		if sa.Gauges[i] != sb.Gauges[i] {
			t.Errorf("gauge %s differs across identical runs", sa.Gauges[i].Name)
		}
		if sa.Gauges[i].Name == "core_window_record_bytes" {
			recorded = sa.Gauges[i].Value > 0
		}
	}
	if !recorded {
		t.Error("core_window_record_bytes is missing or zero: the window record's size went unreported")
	}
	if len(sa.Histograms) != len(sb.Histograms) {
		t.Fatalf("histogram sets differ: %d vs %d", len(sa.Histograms), len(sb.Histograms))
	}
	for i := range sa.Histograms {
		if sa.Histograms[i].Name != sb.Histograms[i].Name || sa.Histograms[i].Count != sb.Histograms[i].Count {
			t.Errorf("histogram %s observation count %d vs %d across identical runs",
				sa.Histograms[i].Name, sa.Histograms[i].Count, sb.Histograms[i].Count)
		}
	}
}

// TestPipelineDeterminismAcrossWorkers requires the parallel pipeline to
// reproduce the sequential run byte-for-byte at every stage, for several
// worker counts and deploy lags. Workers changes only how the work is
// scheduled — fixed shard decomposition and in-order reduction keep every
// float sum, split choice, and feature row identical — and a lagged round
// deploys at a request count, not when the goroutine happens to finish.
func TestPipelineDeterminismAcrossWorkers(t *testing.T) {
	for _, lag := range pipelineLags {
		tr1, opt1, model1, met1 := runSeededPipeline(t, 1, lag)
		for _, workers := range []int{2, 4, 8} {
			trN, optN, modelN, metN := runSeededPipeline(t, workers, lag)
			if !bytes.Equal(tr1, trN) {
				t.Errorf("lag=%d workers=%d: generated trace differs from sequential run", lag, workers)
			}
			if !bytes.Equal(opt1, optN) {
				t.Errorf("lag=%d workers=%d: OPT decisions differ from sequential run", lag, workers)
			}
			if !bytes.Equal(model1, modelN) {
				t.Errorf("lag=%d workers=%d: serialized model differs from sequential run", lag, workers)
			}
			if !bytes.Equal(met1, metN) {
				t.Errorf("lag=%d workers=%d: simulation metrics differ from sequential run", lag, workers)
			}
		}
	}
}

// benchConfigPins are the SHA-256 of Model.Save for the models the three
// cache configurations of the repository's benchmark (bench/cache.go)
// deploy on the unshuffled seed-7 trace: the admission models of windows 0
// and 1 and, for learned eviction, the eviction model of window 0. They
// were recorded at the commit before the trainer's inner loops were
// reworked (PR 14); a trainer change that moves one bit of any float sum,
// split choice or leaf value moves a hash. The two default_flow hashes
// were re-recorded twice: when the min-cost flow solver became
// primal-dual, and when the furthest-next-request sweep took over the BHR
// windows from the flow. Each time the labeler reached the same minimum
// cost through a different optimum, so up to 2.6 % of a window's labels
// differ; the greedy-labelled configurations' hashes did not move.
var benchConfigPins = []struct {
	name   string
	mix    func(requests int, seed int64) gen.Config
	window int
	cfg    core.Config
	admit  [2]string
	evict  string
}{
	{
		name: "admit_rank", mix: gen.CDNMix, window: 10000,
		cfg: core.Config{CacheSize: 64 << 20, Workers: 1, Eviction: "rank", Seed: 1,
			OPT: opt.Config{Algorithm: opt.AlgoGreedy}},
		admit: [2]string{
			"875864f03d94d682780308a1517481f3325f57bf766c551d9e4fb58b7713e3fb",
			"cdd53d029031e8b6f8af9d863b369041381128541263a5b4a68abbfb76ae0f5b",
		},
	},
	{
		name: "evict_learned", mix: gen.WebMix, window: 5000,
		cfg: core.Config{CacheSize: 16 << 20, Workers: 1, Eviction: "learned", Seed: 1,
			OPT: opt.Config{Algorithm: opt.AlgoGreedy}, Cutoff: core.CutoffAdmitAll},
		admit: [2]string{
			"040fbe93ec0bf170a626ad9d9c13f9088b8fef01547993a34522d0074add8069",
			"eb8c9b87d47275715f2bb74a4709287aa820341f487e9e84ae97e15005fbaf76",
		},
		evict: "168fc21cdf28002d837924bec77ad2e8053783386363b8e08a7dce52ebe986ee",
	},
	{
		name: "default_flow", mix: gen.CDNMix, window: 7000,
		cfg: core.Config{CacheSize: 64 << 20, Workers: 1},
		admit: [2]string{
			"2a01748c1904ec0389ad46a79a4233cf5fa7e467f4b471d32d01a008b7000be0",
			"cd5d299b49030139f3a094e057fb6961d2850e51761600524bb4f88937207c85",
		},
	},
}

func modelSHA(t *testing.T, m *gbdt.Model) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestBenchConfigModelPins holds the trainer to the exact models of the
// benchmark's cache configurations, for sequential and parallel training.
func TestBenchConfigModelPins(t *testing.T) {
	for _, pin := range benchConfigPins {
		for _, workers := range []int{1, 4} {
			tr, err := gen.Generate(pin.mix(2*pin.window, 7))
			if err != nil {
				t.Fatal(err)
			}
			cfg := pin.cfg
			cfg.WindowSize = pin.window
			cfg.Workers = workers
			cache, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < 2; w++ {
				for _, r := range tr.Requests[w*pin.window : (w+1)*pin.window] {
					cache.Request(r)
				}
				if cache.Windows() != w+1 {
					t.Fatalf("%s: %d windows after %d requests", pin.name, cache.Windows(), (w+1)*pin.window)
				}
				if got := modelSHA(t, cache.Model()); got != pin.admit[w] {
					t.Errorf("%s workers=%d: admission model of window %d = %s, want %s", pin.name, workers, w, got, pin.admit[w])
				}
			}
			if cfg.Eviction != "learned" {
				continue
			}
			// The eviction model is not reachable through core.LFO; retrain
			// it from the same labels, as the handoff does.
			reqs := tr.Requests[:pin.window]
			optCfg := cfg.OPT
			optCfg.CacheSize = cfg.CacheSize
			optCfg.Workers = workers
			res, err := opt.Compute(&trace.Trace{Requests: reqs}, optCfg)
			if err != nil {
				t.Fatal(err)
			}
			params := gbdt.DefaultParams()
			params.Workers = workers
			em, err := evict.Train(reqs, res.Admit, params)
			if err != nil {
				t.Fatal(err)
			}
			if got := modelSHA(t, em); got != pin.evict {
				t.Errorf("%s workers=%d: eviction model of window 0 = %s, want %s", pin.name, workers, got, pin.evict)
			}
		}
	}
}
