package policy

import (
	"fmt"
	"math"
	"testing"

	"lfo/internal/gen"
	"lfo/internal/sim"
	"lfo/internal/tiered"
	"lfo/internal/trace"
)

// Behavioral tests for the individual policies beyond the shared
// capacity/hit-accounting checks in policy_test.go.

func TestGDWheelEvictsCheapestFirst(t *testing.T) {
	// Greedy-Dual: priority H = L + C. With equal recency, the object
	// with the lowest retrieval cost is evicted first.
	p := NewGDWheel(2)
	p.Request(trace.Request{Time: 0, ID: 1, Size: 1, Cost: 1000})
	p.Request(trace.Request{Time: 1, ID: 2, Size: 1, Cost: 5})
	// Cache full; inserting 3 must evict the cheap object 2.
	p.Request(trace.Request{Time: 2, ID: 3, Size: 1, Cost: 500})
	if !p.Request(trace.Request{Time: 3, ID: 1, Size: 1, Cost: 1000}) {
		t.Error("expensive object 1 was evicted before cheap object 2")
	}
	if p.Request(trace.Request{Time: 4, ID: 2, Size: 1, Cost: 5}) {
		t.Error("cheap object 2 survived")
	}
}

func TestGDWheelHitRestoresPriority(t *testing.T) {
	// After its priority decays (hand advances past it), a hit must
	// re-arm an object's priority to H = L + C.
	p := NewGDWheel(2)
	p.Request(trace.Request{Time: 0, ID: 1, Size: 1, Cost: 10})
	p.Request(trace.Request{Time: 1, ID: 2, Size: 1, Cost: 10})
	// Touch 1 repeatedly while streaming evictions through.
	for i := 0; i < 20; i++ {
		p.Request(trace.Request{Time: int64(2 + 2*i), ID: 1, Size: 1, Cost: 10})
		p.Request(trace.Request{Time: int64(3 + 2*i), ID: trace.ObjectID(100 + i), Size: 1, Cost: 10})
	}
	if !p.Request(trace.Request{Time: 100, ID: 1, Size: 1, Cost: 10}) {
		t.Error("frequently-hit object did not retain priority")
	}
}

func TestGDWheelHugeCostClamped(t *testing.T) {
	// Costs beyond the wheel range must clamp, not panic or corrupt.
	p := NewGDWheel(10)
	p.Request(trace.Request{Time: 0, ID: 1, Size: 5, Cost: 1e18})
	p.Request(trace.Request{Time: 1, ID: 2, Size: 5, Cost: 3})
	p.Request(trace.Request{Time: 2, ID: 3, Size: 5, Cost: 1e18}) // forces eviction
	if !p.Request(trace.Request{Time: 3, ID: 1, Size: 5, Cost: 1e18}) {
		t.Error("max-cost object evicted before cheap one")
	}
}

func TestSlotmapNext(t *testing.T) {
	var m slotmap
	if _, ok := m.next(0); ok {
		t.Error("empty slotmap found a slot")
	}
	m.set(5)
	m.set(130)
	m.set(255)
	if s, ok := m.next(0); !ok || s != 5 {
		t.Errorf("next(0) = %d,%v, want 5", s, ok)
	}
	if s, ok := m.next(6); !ok || s != 130 {
		t.Errorf("next(6) = %d,%v, want 130", s, ok)
	}
	if s, ok := m.next(131); !ok || s != 255 {
		t.Errorf("next(131) = %d,%v, want 255", s, ok)
	}
	if _, ok := m.next(256); ok {
		t.Error("next past end found a slot")
	}
	m.clear(130)
	if s, _ := m.next(6); s != 255 {
		t.Errorf("after clear, next(6) = %d, want 255", s)
	}
}

func TestTinyLFUAdmissionDuel(t *testing.T) {
	// A one-hit wonder must not displace an object with established
	// frequency.
	p := NewTinyLFU(3)
	// Build frequency for objects 1..3.
	for round := 0; round < 5; round++ {
		for id := trace.ObjectID(1); id <= 3; id++ {
			p.Request(trace.Request{Time: int64(round*3 + int(id)), ID: id, Size: 1, Cost: 1})
		}
	}
	// A stream of distinct one-timers: all should lose the duel.
	for i := 0; i < 50; i++ {
		p.Request(trace.Request{Time: int64(100 + i), ID: trace.ObjectID(1000 + i), Size: 1, Cost: 1})
	}
	for id := trace.ObjectID(1); id <= 3; id++ {
		if !p.Request(trace.Request{Time: 200, ID: id, Size: 1, Cost: 1}) {
			t.Errorf("hot object %d displaced by one-hit wonders", id)
		}
	}
}

func TestAdaptSizeRejectsHugeObjectsUnderPressure(t *testing.T) {
	// With many small popular objects and tight space, AdaptSize's tuned
	// admission should rarely admit giant objects.
	tr, err := gen.Generate(gen.CDNMix(60000, 13))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	p := NewAdaptSize(4<<20, 1)
	m := sim.Run(tr, p, sim.Options{Warmup: 50000})
	// After tuning, the OHR should be competitive with LRU's.
	lru := sim.Run(tr, mustNew(t, "lru", 4<<20, 0), sim.Options{Warmup: 50000})
	if m.OHR() <= lru.OHR() {
		t.Errorf("AdaptSize OHR %.4f <= LRU %.4f after tuning", m.OHR(), lru.OHR())
	}
}

func TestLHDClassesBySize(t *testing.T) {
	if lhdClass(1) == lhdClass(1<<20) {
		t.Error("1B and 1MB objects share an LHD class")
	}
	if got := lhdClass(1 << 62); got != lhdSizeClasses-1 {
		t.Errorf("huge object class = %d, want %d", got, lhdSizeClasses-1)
	}
}

func TestLHDSurvivesReconfigure(t *testing.T) {
	// Push enough traffic through to trigger several reconfigurations.
	tr, err := gen.Generate(gen.WebMix(3*lhdReconfigure, 2))
	if err != nil {
		t.Fatal(err)
	}
	p := NewLHD(4<<20, 1)
	m := sim.Run(tr, p, sim.Options{})
	if m.Hits == 0 {
		t.Error("LHD scored no hits across reconfigurations")
	}
	// Densities must remain finite and non-negative.
	for c := 0; c < lhdSizeClasses; c++ {
		for a := 0; a <= lhdAgeBuckets; a++ {
			d := p.density[c][a]
			if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("density[%d][%d] = %g", c, a, d)
			}
		}
	}
}

func TestRLCLearnsFromDelayedRewards(t *testing.T) {
	// The Q-table must move away from zero as rewards arrive — the
	// mechanism works, it is just slow (the paper's point).
	tr, err := gen.Generate(gen.WebMix(20000, 3))
	if err != nil {
		t.Fatal(err)
	}
	p := NewRLC(4<<20, 1)
	sim.Run(tr, p, sim.Options{})
	nonZero := 0
	for sb := 0; sb < rlcSizeBuckets; sb++ {
		for rb := 0; rb < rlcRecencyBuckets; rb++ {
			if p.q[sb][rb][0] != 0 || p.q[sb][rb][1] != 0 {
				nonZero++
			}
		}
	}
	if nonZero == 0 {
		t.Error("RLC Q-table never updated")
	}
}

func TestHyperbolicPriorityDecaysWithAge(t *testing.T) {
	p := NewHyperbolic(100, 1)
	p.Request(trace.Request{Time: 0, ID: 1, Size: 10, Cost: 10})
	early := p.priority(p.store.Get(1))
	p.clock += 1000
	late := p.priority(p.store.Get(1))
	if late >= early {
		t.Errorf("priority did not decay: %g -> %g", early, late)
	}
}

func TestLRUKHistorySurvivesEviction(t *testing.T) {
	// LRU-K retains reference history for evicted objects (HIST), so a
	// re-inserted object keeps its backward K-distance standing.
	p := NewLRUK(2, 2)
	p.Request(trace.Request{Time: 0, ID: 1, Size: 1, Cost: 1})
	p.Request(trace.Request{Time: 1, ID: 1, Size: 1, Cost: 1}) // 1 has 2 refs
	p.Request(trace.Request{Time: 2, ID: 2, Size: 1, Cost: 1})
	p.Request(trace.Request{Time: 3, ID: 3, Size: 1, Cost: 1}) // evicts... 2 or 3 single-ref
	// Re-request 2: even if evicted, its history gives it 2 refs now.
	p.Request(trace.Request{Time: 4, ID: 2, Size: 1, Cost: 1})
	if len(p.hist[2]) < 2 {
		t.Errorf("object 2 history = %v, want 2 entries", p.hist[2])
	}
}

// TestLRUKHistoryStaysBounded: once the history bound is reached, an
// evicted object's history leaves, residents' histories stay, and a new
// object's first reference is kept, including one too large to admit.
func TestLRUKHistoryStaysBounded(t *testing.T) {
	p := NewLRUK(3, 2)
	p.histCap = 2
	for id := trace.ObjectID(1); id <= 199; id++ {
		p.Request(trace.Request{Time: int64(id), ID: id, Size: 1, Cost: 1})
	}
	p.Request(trace.Request{Time: 200, ID: 200, Size: 10, Cost: 10}) // never admitted
	if _, ok := p.hist[200]; !ok {
		t.Error("the new object's first reference was dropped")
	}
	if _, ok := p.hist[1]; ok {
		t.Error("object 1, evicted long ago, still has history")
	}
	for i := 0; i < p.store.Len(); i++ {
		if id := p.store.At(i).ID; p.hist[id] == nil {
			t.Errorf("resident %d lost its history", id)
		}
	}
	if len(p.hist) > p.histCap+p.store.Len() {
		t.Errorf("%d histories kept, want at most %d", len(p.hist), p.histCap+p.store.Len())
	}
}

func TestS4LRUSegmentAccounting(t *testing.T) {
	p := NewS4LRU(40)
	ids := []trace.ObjectID{1, 2, 3, 4, 5}
	for round := 0; round < 4; round++ {
		for _, id := range ids {
			p.Request(trace.Request{Time: int64(round*5 + int(id)), ID: id, Size: 2, Cost: 2})
		}
	}
	// Three rounds of hits carry all five objects from the bottom tier to
	// the top one, which they fill exactly.
	if got := s4Levels(t, p); fmt.Sprint(got) != "[10 0 0 0]" {
		t.Errorf("tier bytes = %v, want [10 0 0 0]", got)
	}
}

// s4Levels returns an S4LRU's resident bytes per tier, top tier first.
func s4Levels(t *testing.T, p sim.Policy) []int64 {
	t.Helper()
	c, ok := p.(named).Policy.(*tiered.TieredCache)
	if !ok {
		t.Fatalf("%s is not a tiered cache", p.Name())
	}
	return c.Used()
}

// TestS4LRUBelowFourBytes: below 4 B there is no whole byte per segment.
// The cache must still build and hold at most its capacity after every
// request.
func TestS4LRUBelowFourBytes(t *testing.T) {
	tr := smallObjectTrace(3000, 3, true)
	for capacity := int64(1); capacity <= 3; capacity++ {
		p := NewS4LRU(capacity)
		for i, r := range tr.Requests {
			p.Request(r)
			var used int64
			for _, u := range s4Levels(t, p) {
				used += u
			}
			if used > capacity {
				t.Fatalf("capacity %d: %d bytes resident after request %d", capacity, used, i)
			}
		}
	}
}
