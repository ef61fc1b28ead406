package features

import (
	"testing"

	"lfo/internal/gen"
	"lfo/internal/trace"
)

func BenchmarkFeatureTracking(b *testing.B) {
	tr, err := gen.Generate(gen.CDNMix(50000, 3))
	if err != nil {
		b.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	// The request path's two tracker calls at steady state: an unbounded
	// tracker (core's default) that has seen every object once, so the
	// timed loop inserts nothing. Pinned to 0 allocs/op by
	// testdata/alloc_budgets.txt (scripts/check.sh).
	b.Run("stream", func(b *testing.B) {
		tracker := NewTracker(0)
		buf := make([]float64, Dim)
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
}
