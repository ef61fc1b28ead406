package policy

import (
	"math/rand"

	"lfo/internal/sim"
	"lfo/internal/trace"
)

// evictionSamples is the candidate count for sampled-eviction policies
// (Hyperbolic and LHD both use sampling, [13], [7]).
const evictionSamples = 64

// Hyperbolic caching (Blankstein, Sen, Freedman, ATC 2017 [13]) ranks
// objects by frequency divided by time in cache, which — unlike LRU or
// LFU — has no fixed decay shape. Eviction samples a set of resident
// objects and drops the minimum-priority one. Priorities are divided by
// size so large objects must earn their keep (the paper's size-aware
// variant).
type Hyperbolic struct {
	store *sim.Store[hypMeta]
	rng   *rand.Rand
	clock int64
}

type hypMeta struct {
	freq    int64
	arrival int64
}

// NewHyperbolic returns a hyperbolic cache with sampled eviction.
func NewHyperbolic(capacity, seed int64) *Hyperbolic {
	return &Hyperbolic{store: sim.NewStore[hypMeta](capacity), rng: rand.New(rand.NewSource(seed))}
}

// Name implements sim.Policy.
func (p *Hyperbolic) Name() string { return "Hyperbolic" }

// priority is the hyperbolic rank: frequency per unit time in cache, per
// byte.
func (p *Hyperbolic) priority(e *sim.StoreEntry[hypMeta]) float64 {
	age := p.clock - e.Payload.arrival
	if age < 1 {
		age = 1
	}
	return float64(e.Payload.freq) / (float64(age) * float64(e.Size))
}

// evictOne removes the lowest-priority object among a random sample of
// the store's dense index.
func (p *Hyperbolic) evictOne() {
	var victim *sim.StoreEntry[hypMeta]
	best := -1.0
	for i := min(evictionSamples, p.store.Len()); i > 0; i-- {
		e := p.store.At(p.rng.Intn(p.store.Len()))
		if pr := p.priority(e); best < 0 || pr < best {
			best, victim = pr, e
		}
	}
	p.store.Remove(victim.ID)
}

// Request implements sim.Policy.
func (p *Hyperbolic) Request(r trace.Request) bool {
	p.clock++
	if e := p.store.Get(r.ID); e != nil {
		e.Payload.freq++
		return true
	}
	if r.Size > p.store.Capacity() {
		return false
	}
	for !p.store.Fits(r.Size) {
		p.evictOne()
	}
	p.store.Add(r.ID, r.Size).Payload = hypMeta{freq: 1, arrival: p.clock}
	return false
}
