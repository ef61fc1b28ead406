package features

import (
	"math/rand"
	"testing"

	"lfo/internal/trace"
)

// TestUnboundedTrackerKeepsNoHeap: a tracker that never evicts has nothing
// to order, so its memory is the tracked objects and no more — in the
// tracker and in its clones.
func TestUnboundedTrackerKeepsNoHeap(t *testing.T) {
	tr := NewTracker(0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		tr.Update(req(int64(i), trace.ObjectID(rng.Intn(5000)), 10, 10))
	}
	if n := len(tr.evictHeap); n != 0 {
		t.Errorf("unbounded tracker holds %d heap entries after 100000 updates, want 0", n)
	}
	if n := cap(tr.Clone().evictHeap); n != 0 {
		t.Errorf("clone of an unbounded tracker reserves %d heap entries, want 0", n)
	}
	if tr.Len() == 0 || tr.Len() > 5000 {
		t.Errorf("Len = %d, want the distinct objects seen", tr.Len())
	}
}

// TestBoundedTrackerHeapIsOneEntryPerObject: below its bound a bounded
// tracker's eviction heap grows with the objects it tracks, not with the
// requests it has seen (it used to keep one lazily invalidated entry per
// request: 100000 here).
func TestBoundedTrackerHeapIsOneEntryPerObject(t *testing.T) {
	tr := NewTracker(8192)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		tr.Update(req(int64(i), trace.ObjectID(rng.Intn(5000)), 10, 10))
	}
	if len(tr.evictHeap) != tr.Len() {
		t.Errorf("heap holds %d entries for %d tracked objects after 100000 updates", len(tr.evictHeap), tr.Len())
	}
}

// TestBoundedEvictionPicksMinLastTime replays a re-referencing stream with
// strictly increasing times through a tracker at its bound and requires
// every eviction to take the object a brute-force scan names: the one with
// the smallest lastTime. A stale heap entry that was dropped, or evicted
// on, instead of re-pushed fails here.
func TestBoundedEvictionPicksMinLastTime(t *testing.T) {
	const maxObjects = 64
	tr := NewTracker(maxObjects)
	last := map[trace.ObjectID]int64{}
	rng := rand.New(rand.NewSource(2))
	evictions := 0
	for i := 0; i < 20000; i++ {
		id := trace.ObjectID(1 + rng.Intn(400))
		if _, ok := last[id]; !ok && len(last) >= maxObjects {
			oldest := trace.ObjectID(0)
			for o, lt := range last {
				if oldest == 0 || lt < last[oldest] {
					oldest = o
				}
			}
			delete(last, oldest)
			evictions++
		}
		last[id] = int64(i)
		tr.Update(req(int64(i), id, 10, 10))
		if tr.Len() != len(last) || len(tr.evictHeap) != len(last) {
			t.Fatalf("update %d: tracker holds %d objects and %d heap entries, reference %d",
				i, tr.Len(), len(tr.evictHeap), len(last))
		}
		for o, lt := range last {
			if si, ok := tr.index[o]; !ok || tr.slots.at(si).lastTime != lt {
				t.Fatalf("update %d: object %d is in the reference and not (or not as current) in the tracker", i, o)
			}
		}
	}
	if evictions < 1000 {
		t.Fatalf("only %d evictions; the stream does not exercise the bound", evictions)
	}
}
