package lfo

// Benchmark harness: one testing.B benchmark per figure of the paper's
// evaluation (regenerating its rows/series), plus ablation benches for the
// design choices called out in DESIGN.md and micro-benchmarks of the hot
// paths. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benches print their tables once (on the first iteration) so
// `go test -bench` output doubles as the experiment record; lfobench runs
// the same harness at larger scales.

import (
	"fmt"
	"sync"
	"testing"

	"lfo/internal/experiments"
	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/mrc"
	"lfo/internal/opt"
	"lfo/internal/policy"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// benchCfg is the shared experiment scale for benchmarks: large enough to
// be representative, small enough for -bench runs.
func benchCfg() experiments.Config {
	cfg := experiments.Quick()
	cfg.Requests = 30000
	cfg.Window = 10000
	return cfg
}

var printOnce sync.Map

// printTable prints a table once per benchmark name.
func printTable(b *testing.B, t fmt.Stringer) {
	if _, loaded := printOnce.LoadOrStore(b.Name(), true); !loaded {
		b.Logf("\n%s", t)
	}
}

func BenchmarkFig1RLBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Fig1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, experiments.Fig1Table(rs))
	}
}

func BenchmarkFig5aCutoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig5a(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, experiments.Fig5aTable(pts))
	}
}

func BenchmarkFig5bTrainingSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig5b(benchCfg(), []int{2500, 5000, 10000}, 2)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, experiments.Fig5bTable(pts))
	}
}

func BenchmarkFig5cSeeds(b *testing.B) {
	cfg := benchCfg()
	cfg.Window = 6000
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5c(cfg, 5)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, experiments.Fig5cTable(res))
	}
}

func BenchmarkFig6Policies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, experiments.Fig6Table(res, "bhr"))
	}
}

func BenchmarkFig7Throughput(b *testing.B) {
	cfg := benchCfg()
	cfg.Requests = 20000
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig7(cfg, []int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, experiments.Fig7Table(pts))
	}
}

func BenchmarkFig8Importance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries, _, err := experiments.Fig8(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, experiments.Fig8Table(entries))
	}
}

func BenchmarkAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Accuracy(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if _, loaded := printOnce.LoadOrStore(b.Name(), true); !loaded {
			b.Logf("\n§3 accuracy: %.2f%% (paper: >93%%)", 100*res.Accuracy)
		}
	}
}

// Ablation benches (DESIGN.md, "Design choices called out for ablation").

func BenchmarkAblationRankedOPT(b *testing.B) {
	cfg := benchCfg()
	cfg.Requests = 10000
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AblationRankFraction(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, experiments.AblationRankFractionTable(pts))
	}
}

func BenchmarkAblationFeatureVariants(b *testing.B) {
	cfg := benchCfg()
	cfg.Requests = 16000
	cfg.Window = 8000
	for i := 0; i < b.N; i++ {
		rs, err := experiments.AblationFeatureVariants(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, experiments.AblationFeatureVariantsTable(rs))
	}
}

func BenchmarkAblationPolicyDesign(b *testing.B) {
	cfg := benchCfg()
	cfg.Requests = 20000
	cfg.Window = 5000
	for i := 0; i < b.N; i++ {
		rs, err := experiments.AblationPolicyDesign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, experiments.AblationPolicyDesignTable(rs))
	}
}

func BenchmarkAblationIterations(b *testing.B) {
	cfg := benchCfg()
	cfg.Requests = 12000
	cfg.Window = 6000
	for i := 0; i < b.N; i++ {
		rs, err := experiments.AblationIterations(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, experiments.AblationIterationsTable(rs))
	}
}

// Micro-benchmarks of the hot paths.

func benchTrace(b *testing.B, n int) *Trace {
	b.Helper()
	tr, err := GenerateCDNMix(n, 3)
	if err != nil {
		b.Fatal(err)
	}
	return tr.WithCosts(ObjectiveBHR)
}

func BenchmarkPolicyRequest(b *testing.B) {
	tr := benchTrace(b, 50000)
	for _, name := range policy.Names() {
		b.Run(name, func(b *testing.B) {
			p, err := policy.New(name, 32<<20, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Request(tr.Requests[i%tr.Len()])
			}
		})
	}
}

func BenchmarkGBDTPredict(b *testing.B) {
	tr := benchTrace(b, 12000)
	model, err := TrainWindowModel(tr, CacheConfig{CacheSize: 16 << 20, WindowSize: tr.Len()})
	if err != nil {
		b.Fatal(err)
	}
	row := make([]float64, features.Dim)
	row[features.FeatSize] = 32 << 10
	row[features.FeatFree] = 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(row)
	}
}

func BenchmarkGBDTTrain(b *testing.B) {
	tr := benchTrace(b, 10000)
	ds := gbdt.NewDataset(features.Dim)
	tracker := features.NewTracker(0)
	buf := make([]float64, features.Dim)
	res, err := opt.Compute(tr, opt.Config{CacheSize: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for i, r := range tr.Requests {
		tracker.Features(r, 1<<20, buf)
		tracker.Update(r)
		label := 0.0
		if res.Admit[i] {
			label = 1
		}
		ds.Append(buf, label)
	}
	for _, v := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=all", 0}} {
		b.Run(v.name, func(b *testing.B) {
			p := gbdt.DefaultParams()
			p.Workers = v.workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gbdt.Train(ds, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOPTCompute measures the OPT labeler across algorithm and
// window-size regimes. flow-large is the segmented headline: ~130k
// intervals, 10x beyond the 12k single-solve ceiling, 56 % of them
// labeled by exact per-segment flow in 3.4 s. (One unsegmented solve of
// 13.6k intervals — 32 000 CDN-mix requests, seed 3, 64 MiB — takes 4.9 s
// on this hardware; it took 50 s before the flow solver became
// primal-dual.) The reported flow-ivs/greedy-ivs metrics break down how
// many intervals each solver labeled.
func BenchmarkOPTCompute(b *testing.B) {
	small := benchTrace(b, 8000)
	large := benchTrace(b, 220000)
	cases := []struct {
		name string
		tr   *Trace
		cfg  opt.Config
	}{
		{"flow-small", small, opt.Config{CacheSize: 16 << 20, Algorithm: opt.AlgoFlow}},
		{"flow-large", large, opt.Config{CacheSize: 64 << 20, Algorithm: opt.AlgoFlow}},
		{"greedy-small", small, opt.Config{CacheSize: 16 << 20, Algorithm: opt.AlgoGreedy}},
		{"greedy-large", large, opt.Config{CacheSize: 64 << 20, Algorithm: opt.AlgoGreedy}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var res *OPTResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = opt.Compute(c.tr, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.FlowIntervals), "flow-ivs")
			b.ReportMetric(float64(res.GreedyIntervals), "greedy-ivs")
			b.ReportMetric(float64(res.Segments), "segments")
		})
	}
}

func BenchmarkFeatureTracking(b *testing.B) {
	tr := benchTrace(b, 50000)
	// The request path's two tracker calls at steady state: an unbounded
	// tracker (core's default) that has seen every object once, so the
	// timed loop inserts nothing. Pinned to 0 allocs/op by
	// testdata/alloc_budgets.txt (scripts/check.sh).
	b.Run("stream", func(b *testing.B) {
		tracker := features.NewTracker(0)
		buf := make([]float64, features.Dim)
		for _, r := range tr.Requests {
			tracker.Update(r)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := tr.Requests[i%tr.Len()]
			tracker.Features(r, 1<<20, buf)
			tracker.Update(r)
		}
	})
	// Window-matrix extraction, the sharded retrain-path variant.
	free := make([]int64, tr.Len())
	for i := range free {
		free[i] = 1 << 20
	}
	for _, v := range []struct {
		name    string
		workers int
	}{{"matrix/workers=1", 1}, {"matrix/workers=all", 0}} {
		b.Run(v.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				features.NewTracker(0).BuildMatrix(tr.Requests, free, v.workers)
			}
		})
	}
}

func BenchmarkSimulatorRun(b *testing.B) {
	tr := benchTrace(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := policy.NewLRU(32 << 20)
		sim.Run(tr, p, sim.Options{})
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateCDNMix(50000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceBinaryCodec(b *testing.B) {
	tr := benchTrace(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		if err := trace.WriteBinary(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

type writeCounter struct{ n int64 }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func BenchmarkTieredExtension(b *testing.B) {
	cfg := benchCfg()
	cfg.Requests = 20000
	for i := 0; i < b.N; i++ {
		rs, err := experiments.TieredExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, experiments.TieredTable(rs))
	}
}

func BenchmarkMRCComputeLRU(b *testing.B) {
	tr := benchTrace(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mrc.ComputeLRU(tr)
	}
}

func BenchmarkPredictionServerRoundTrip(b *testing.B) {
	tr := benchTrace(b, 10000)
	model, err := TrainWindowModel(tr, CacheConfig{CacheSize: 16 << 20, WindowSize: tr.Len()})
	if err != nil {
		b.Fatal(err)
	}
	srv := NewPredictionServer(model, 0)
	srv.Logf = b.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := DialPrediction(addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	// One batch of 64 rows per round trip.
	rows := make([]float64, 64*features.Dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Predict(rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictionServerSingleRow is the fleet baseline: one row per
// round trip over the classic synchronous client, the pattern a frontend
// uses without the batching router. Compare against
// BenchmarkRouterEnqueueFlush (internal/fleet) and the lfoload sync vs
// router modes for the pipelining win.
func BenchmarkPredictionServerSingleRow(b *testing.B) {
	tr := benchTrace(b, 10000)
	model, err := TrainWindowModel(tr, CacheConfig{CacheSize: 16 << 20, WindowSize: tr.Len()})
	if err != nil {
		b.Fatal(err)
	}
	srv := NewPredictionServer(model, 0)
	srv.Logf = b.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := DialPrediction(addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	row := make([]float64, features.Dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Predict(row); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRobustnessScans(b *testing.B) {
	cfg := benchCfg()
	cfg.Requests = 20000
	cfg.Window = 5000
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Robustness(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, experiments.RobustnessTable(rs))
	}
}

func BenchmarkEvictionGrid(b *testing.B) {
	cfg := benchCfg()
	cfg.Requests = 12000
	cfg.Window = 4000
	cfg.CacheSize = 8 << 20
	for i := 0; i < b.N; i++ {
		rs, err := experiments.EvictionGrid(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, experiments.EvictionGridTable(rs))
	}
}
