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
	// timed loop inserts nothing; an object the warm-up saw only once takes
	// its ring here, one slab chunk per 16 of them. Pinned to 0 allocs/op
	// by testdata/alloc_budgets.txt (scripts/check.sh).
	warm := func(b *testing.B) (*Tracker, []float64) {
		tracker, buf := NewTracker(0), make([]float64, Dim)
		for _, r := range tr.Requests {
			tracker.Update(r)
		}
		b.ReportAllocs()
		b.ResetTimer()
		return tracker, buf
	}
	b.Run("stream", func(b *testing.B) {
		tracker, buf := warm(b)
		for i := 0; i < b.N; i++ {
			r := tr.Requests[i%tr.Len()]
			tracker.Features(r, 1<<20, buf)
			tracker.Update(r)
		}
	})
	// The same steady state through the fused call the cache makes.
	b.Run("observe", func(b *testing.B) {
		tracker, buf := warm(b)
		for i := 0; i < b.N; i++ {
			tracker.Observe(tr.Requests[i%tr.Len()], 1<<20, buf)
		}
	})
	// Every request a first sight: what tracking an object that never
	// returns costs. One slab chunk per 16 objects and the index map's
	// doublings round to 0 allocs/op (testdata/alloc_budgets.txt); one heap
	// object per tracked object would read 1.
	b.Run("cold", func(b *testing.B) {
		tracker := NewTracker(0)
		buf := make([]float64, Dim)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := tr.Requests[i%tr.Len()]
			r.ID = trace.ObjectID(i)
			tracker.Observe(r, 1<<20, buf)
		}
	})
}
