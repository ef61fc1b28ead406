package opt

import (
	"testing"

	"lfo/internal/gen"
	"lfo/internal/trace"
)

// flowWindows cuts a seeded CDN-mix trace into the windows the
// repository benchmark's default_flow workload hands to Compute: 7000
// requests each, costs as generated (BHR).
func flowWindows(tb testing.TB, windows int, seed int64) []*trace.Trace {
	tb.Helper()
	const window = 7000
	tr, err := gen.Generate(gen.CDNMix(windows*window, seed))
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*trace.Trace, windows)
	for w := range out {
		out[w] = &trace.Trace{Requests: tr.Requests[w*window : (w+1)*window]}
	}
	return out
}

// BenchmarkFlowWindow is the labelling step of the default_flow handoff:
// what a cache configured with nothing but its size pays per window
// (AlgoAuto, one exact flow solve of ~2100 intervals at 64 MiB, one
// worker), cycling the first four windows of the seed-7 trace.
func BenchmarkFlowWindow(b *testing.B) {
	wins := flowWindows(b, 4, 7)
	cfg := Config{CacheSize: 64 << 20, Workers: 1}
	var res *Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Compute(wins[i%len(wins)], cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.FlowIntervals), "flow-ivs")
}
