package evict

import (
	"math"
	"testing"

	"lfo/internal/gen"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// Behavioral tests of the GD-Wheel, Hyperbolic and LHD evictors beyond the
// shared invariants; internal/policy replays them against the
// implementations they replaced.

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

func TestLHDClassesBySize(t *testing.T) {
	if lhdClass(1) == lhdClass(1<<20) {
		t.Error("1B and 1MB objects share an LHD class")
	}
	if got := lhdClass(1 << 62); got != lhdSizeClasses-1 {
		t.Errorf("huge object class = %d, want %d", got, lhdSizeClasses-1)
	}
}

// TestLHDAgeBucketClamps: a time before the last access is age 0, not a
// negative bucket, and ages past the histogram share its last bucket.
func TestLHDAgeBucketClamps(t *testing.T) {
	for _, c := range []struct {
		now, last int64
		want      int
	}{{0, 255, 0}, {100, 100, 0}, {100 + 1<<lhdAgeShift, 100, 1}, {math.MaxInt64, 0, lhdAgeBuckets}} {
		if got := lhdAgeBucket(c.now, c.last); got != c.want {
			t.Errorf("lhdAgeBucket(%d, %d) = %d, want %d", c.now, c.last, got, c.want)
		}
	}
}

func TestLHDSurvivesReconfigure(t *testing.T) {
	// Push enough traffic through to trigger several reconfigurations.
	tr, err := gen.Generate(gen.WebMix(3*lhdReconfigure, 2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{CacheSize: 4 << 20, Eviction: "lhd", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Run(tr, c, sim.Options{})
	if m.Hits == 0 {
		t.Error("LHD scored no hits across reconfigurations")
	}
	p := c.res.Evictor.(*lhd)
	if p.rebuilds < 2 {
		t.Errorf("%d density rebuilds over %d requests", p.rebuilds, tr.Len())
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

func TestHyperbolicPriorityDecaysWithAge(t *testing.T) {
	res, err := NewResidents(100, "hyperbolic", Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res.Admit(trace.Request{Time: 0, ID: 1, Size: 10, Cost: 10}, 1)
	early := hyperbolicPriority(res.Store.Get(1), 0)
	late := hyperbolicPriority(res.Store.Get(1), 1000)
	if late >= early {
		t.Errorf("priority did not decay: %g -> %g", early, late)
	}
}
