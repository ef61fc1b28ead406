package opt

import (
	"testing"

	"lfo/internal/gen"
	"lfo/internal/trace"
)

// cdnWindows cuts a seeded CDN-mix trace into the windows a repository
// benchmark workload hands to Compute: size requests each, costs as
// generated (BHR).
func cdnWindows(tb testing.TB, windows, size int, seed int64) []*trace.Trace {
	tb.Helper()
	tr, err := gen.Generate(gen.CDNMix(windows*size, seed))
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*trace.Trace, windows)
	for w := range out {
		out[w] = &trace.Trace{Requests: tr.Requests[w*size : (w+1)*size]}
	}
	return out
}

// benchmarkWindows runs one Compute per iteration, cycling wins, and
// reports the last window's solved interval count.
func benchmarkWindows(b *testing.B, wins []*trace.Trace, cfg Config) {
	var res *Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Compute(wins[i%len(wins)], cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Solved), "ivs")
}

// BenchmarkFlowWindow is the labelling step of the default_flow handoff:
// what a cache configured with nothing but its size pays per window
// (AlgoFlow; under BHR one sweep of ~2100 intervals at 64 MiB), cycling
// the first four 7000-request windows of the seed-7 trace.
func BenchmarkFlowWindow(b *testing.B) {
	benchmarkWindows(b, cdnWindows(b, 4, 7000, 7), Config{CacheSize: 64 << 20})
}

// BenchmarkGreedyWindow is the labelling step of the admit_rank handoff:
// one greedy pass over a 10 000-request CDN-mix window at 64 MiB, cycling
// the first four windows of the seed-7 trace. Windows whose per-byte costs
// differ take the same pass under AlgoFlow.
func BenchmarkGreedyWindow(b *testing.B) {
	benchmarkWindows(b, cdnWindows(b, 4, 10000, 7), Config{CacheSize: 64 << 20, Algorithm: AlgoGreedy})
}
