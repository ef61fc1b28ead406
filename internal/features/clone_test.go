package features

import (
	"testing"

	"lfo/internal/trace"
)

// TestCloneIsolation verifies mutations of a clone never leak into the
// original and vice versa.
func TestCloneIsolation(t *testing.T) {
	orig := NewTracker(0)
	orig.Update(trace.Request{Time: 10, ID: 1, Size: 50, Cost: 2})
	orig.Update(trace.Request{Time: 30, ID: 1, Size: 50, Cost: 2})

	clone := orig.Clone()
	clone.Update(trace.Request{Time: 70, ID: 1, Size: 50, Cost: 9})
	clone.Update(trace.Request{Time: 75, ID: 2, Size: 10, Cost: 1})

	if orig.Len() != 1 || clone.Len() != 2 {
		t.Fatalf("Len: orig %d (want 1), clone %d (want 2)", orig.Len(), clone.Len())
	}
	buf := make([]float64, Dim)
	orig.Features(trace.Request{Time: 100, ID: 1, Size: 50}, 0, buf)
	if got := buf[FeatGap0]; got != 70 {
		t.Errorf("orig gap0 = %g, want 70 (clone's update leaked)", got)
	}
	if got := buf[FeatCost]; got != 2 {
		t.Errorf("orig cost = %g, want 2 (clone's update leaked)", got)
	}
}
