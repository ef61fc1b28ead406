package policy

import (
	"testing"

	"lfo/internal/evict"
	"lfo/internal/trace"
)

func shReq(id trace.ObjectID) trace.Request {
	return trace.Request{ID: id, Size: 100, Cost: 1}
}

func TestSecondHitCensorAdmitsOnSecondRequest(t *testing.T) {
	p := NewSecondHitCensor(0)
	if ok, lik := p.Admit(shReq(1), 0); ok || lik != 0 {
		t.Errorf("first request admitted (ok=%v lik=%v)", ok, lik)
	}
	p.Observe(shReq(1))
	if ok, lik := p.Admit(shReq(1), 0); !ok || lik != 1 {
		t.Errorf("second request not admitted (ok=%v lik=%v)", ok, lik)
	}
	// Other objects remain unseen.
	if ok, _ := p.Admit(shReq(2), 0); ok {
		t.Error("unseen object admitted")
	}
}

// TestSecondHitCensorLabelsEvictCache: a combined cache behind the censor
// is named after it, as lfosim -admit second-hit prints it.
func TestSecondHitCensorLabelsEvictCache(t *testing.T) {
	c, err := evict.New(evict.Config{CacheSize: 1 << 20, Eviction: "lru", Admitter: NewSecondHitCensor(0)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Name(), "second-hit+lru"; got != want {
		t.Errorf("Name = %q, want %q", got, want)
	}
}

func TestSecondHitCensorRotatesGenerations(t *testing.T) {
	p := NewSecondHitCensor(2)
	// Fill generation 1 with {1,2}, then force two rotations with {3,4}
	// and {5,6}: object 1 must be forgotten, recent ones remembered.
	for id := trace.ObjectID(1); id <= 6; id++ {
		p.Observe(shReq(id))
	}
	if ok, _ := p.Admit(shReq(1), 0); ok {
		t.Error("object from two generations ago still admitted")
	}
	for id := trace.ObjectID(5); id <= 6; id++ {
		if ok, _ := p.Admit(shReq(id), 0); !ok {
			t.Errorf("recent object %d not admitted", id)
		}
	}
	// Memory stays bounded by 2×maxIDs.
	if total := len(p.cur) + len(p.prev); total > 4 {
		t.Errorf("censor remembers %d IDs, bound is 4", total)
	}
}

func TestSecondHitCensorRepeatsDoNotRotate(t *testing.T) {
	p := NewSecondHitCensor(2)
	p.Observe(shReq(1))
	p.Observe(shReq(2))
	// Re-observing a known object at the bound must not discard history.
	p.Observe(shReq(1))
	p.Observe(shReq(2))
	for id := trace.ObjectID(1); id <= 2; id++ {
		if ok, _ := p.Admit(shReq(id), 0); !ok {
			t.Errorf("repeated object %d forgotten by spurious rotation", id)
		}
	}
}

// remembered counts the distinct IDs across both generations.
func (p *SecondHitCensor) remembered() int {
	n := len(p.prev)
	for id := range p.cur {
		if _, ok := p.prev[id]; !ok {
			n++
		}
	}
	return n
}

// TestSecondHitCensorMemoryBound pins the documented invariant: once the
// first generation has filled, the censor remembers between maxIDs and
// 2×maxIDs distinct objects at every step of an all-distinct stream.
func TestSecondHitCensorMemoryBound(t *testing.T) {
	const maxIDs = 8
	p := NewSecondHitCensor(maxIDs)
	for id := trace.ObjectID(1); id <= 10*maxIDs; id++ {
		p.Observe(shReq(id))
		if n := p.remembered(); int(id) >= maxIDs && (n < maxIDs || n > 2*maxIDs) {
			t.Fatalf("after %d distinct observes: remembered %d IDs, want in [%d, %d]",
				id, n, maxIDs, 2*maxIDs)
		}
	}
}

// TestSecondHitCensorBurstRetention pins the rotation-order fix: a
// rotation must happen only after the triggering insert lands, so every
// observed ID survives at least maxIDs subsequent distinct-new observes.
// With the old rotate-before-insert order, a single brand-new ID arriving
// at a full current generation dropped the previous generation
// immediately — the new ID "bought" its slot by flushing history.
func TestSecondHitCensorBurstRetention(t *testing.T) {
	const maxIDs = 8
	for offset := 0; offset < maxIDs; offset++ {
		p := NewSecondHitCensor(maxIDs)
		// Position the victim ID at every possible phase of a generation.
		var next trace.ObjectID = 1
		for i := 0; i < offset; i++ {
			p.Observe(shReq(next))
			next++
		}
		victim := next
		p.Observe(shReq(victim))
		next++
		// A burst of maxIDs-1 distinct one-hit wonders must not evict it.
		for i := 0; i < maxIDs-1; i++ {
			p.Observe(shReq(next))
			next++
			if ok, _ := p.Admit(shReq(victim), 0); !ok {
				t.Fatalf("offset %d: victim forgotten after %d distinct observes, want >= %d",
					offset, i+1, maxIDs-1)
			}
		}
	}
}

func TestSecondHitCensorUnbounded(t *testing.T) {
	p := NewSecondHitCensor(-1)
	for id := trace.ObjectID(0); id < 1000; id++ {
		p.Observe(shReq(id))
	}
	for id := trace.ObjectID(0); id < 1000; id++ {
		if ok, _ := p.Admit(shReq(id), 0); !ok {
			t.Fatalf("unbounded censor forgot object %d", id)
		}
	}
}
