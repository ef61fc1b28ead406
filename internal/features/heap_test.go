package features

import (
	"container/heap"
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

// boxedAgeHeap is the tracker's eviction heap as it was first written: the
// same entries behind container/heap's interface.
type boxedAgeHeap []ageEntry

func (h boxedAgeHeap) Len() int            { return len(h) }
func (h boxedAgeHeap) Less(i, j int) bool  { return h[i].lastTime < h[j].lastTime }
func (h boxedAgeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedAgeHeap) Push(x interface{}) { *h = append(*h, x.(ageEntry)) }
func (h *boxedAgeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestBoundedEvictionMatchesContainerHeap replays a stream with many equal
// timestamps through a bounded tracker and through a model of it built on
// container/heap, and requires the same object to lose its state at every
// eviction: the typed heap must break ties exactly as container/heap does.
func TestBoundedEvictionMatchesContainerHeap(t *testing.T) {
	const maxObjects = 64
	tr := NewTracker(maxObjects)
	var ref boxedAgeHeap
	last := map[trace.ObjectID]int64{}
	rng := rand.New(rand.NewSource(2))
	evictions := 0
	for i := 0; i < 20000; i++ {
		id := trace.ObjectID(1 + rng.Intn(400))
		now := int64(i / 7) // runs of equal timestamps
		if rng.Intn(50) == 0 {
			now -= int64(rng.Intn(20)) // and the odd step back
		}
		evicted := trace.ObjectID(0)
		if _, ok := last[id]; !ok && len(last) >= maxObjects {
			for {
				e := heap.Pop(&ref).(ageEntry)
				if lt, ok := last[e.id]; ok && lt == e.lastTime {
					evicted = e.id
					delete(last, e.id)
					break
				}
			}
			evictions++
		}
		last[id] = now
		heap.Push(&ref, ageEntry{id: id, lastTime: now})

		tr.Update(req(now, id, 10, 10))
		if tr.Len() != len(last) {
			t.Fatalf("update %d: tracker holds %d objects, reference %d", i, tr.Len(), len(last))
		}
		if _, ok := tr.objects[evicted]; ok && evicted != 0 {
			t.Fatalf("update %d: reference evicted object %d, tracker kept it", i, evicted)
		}
		if len(tr.evictHeap) != len(ref) {
			t.Fatalf("update %d: heap has %d entries, reference %d", i, len(tr.evictHeap), len(ref))
		}
	}
	if evictions < 1000 {
		t.Fatalf("only %d evictions; the stream does not exercise the bound", evictions)
	}
	for i := range ref {
		if tr.evictHeap[i] != ref[i] {
			t.Fatalf("heap slot %d: %+v, reference %+v", i, tr.evictHeap[i], ref[i])
		}
	}
}
