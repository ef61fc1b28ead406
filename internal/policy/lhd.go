package policy

import (
	"math"
	"math/bits"
	"math/rand"

	"lfo/internal/sim"
	"lfo/internal/trace"
)

// LHD geometry.
const (
	lhdAgeBuckets  = 128   // coarsened age histogram size
	lhdSizeClasses = 16    // objects are classified by log2(size)
	lhdAgeShift    = 6     // age bucket = (now - lastAccess) >> shift
	lhdReconfigure = 20000 // accesses between density-table rebuilds
	lhdEWMADecay   = 0.9   // histogram decay per reconfiguration
)

// LHD (Beckmann, Chen, Cidon, NSDI 2018 [7]) evicts by lowest hit
// density: the expected hits per byte·time an object will deliver if kept.
// The implementation follows the paper's structure — per-class age
// histograms of hits and evictions, periodically folded into a hit-density
// table with exponential decay, and sampled eviction of the
// minimum-density candidate. Classes here are log2-size classes.
type LHD struct {
	store *sim.Store[lhdMeta]
	rng   *rand.Rand
	clock int64

	hits      [lhdSizeClasses][lhdAgeBuckets + 1]float64
	evictions [lhdSizeClasses][lhdAgeBuckets + 1]float64
	density   [lhdSizeClasses][lhdAgeBuckets + 1]float64
	accesses  int
}

type lhdMeta struct {
	lastAccess int64
	class      int
}

// NewLHD returns a hit-density cache with sampled eviction.
func NewLHD(capacity, seed int64) *LHD {
	p := &LHD{store: sim.NewStore[lhdMeta](capacity), rng: rand.New(rand.NewSource(seed))}
	// Optimistic priors: young objects look promising until data says
	// otherwise.
	for c := 0; c < lhdSizeClasses; c++ {
		for a := 0; a <= lhdAgeBuckets; a++ {
			p.density[c][a] = 1 / float64(a+1)
		}
	}
	return p
}

// Name implements sim.Policy.
func (p *LHD) Name() string { return "LHD" }

func lhdClass(size int64) int {
	c := bits.Len64(uint64(size)) // log2 bucket
	if c >= lhdSizeClasses {
		c = lhdSizeClasses - 1
	}
	return c
}

func (p *LHD) ageBucket(lastAccess int64) int {
	a := (p.clock - lastAccess) >> lhdAgeShift
	if a > lhdAgeBuckets {
		a = lhdAgeBuckets
	}
	return int(a)
}

// reconfigure folds the hit/eviction histograms into the density table:
// density(a) = expected hits beyond age a per unit of remaining lifetime,
// then decays the histograms.
func (p *LHD) reconfigure() {
	for c := 0; c < lhdSizeClasses; c++ {
		// Backward scan maintaining, for each age a:
		//   cumHits     = Σ_{t≥a} hits[t]
		//   tail        = Σ_{t>a} (hits[t]+evictions[t])
		//   cumLifetime = Σ_{t≥a} (hits[t]+evictions[t])·(t−a+1)
		// using L(a) = L(a+1) + tail(a+1) + events[a].
		var cumHits, tail, cumLifetime float64
		for a := lhdAgeBuckets; a >= 0; a-- {
			events := p.hits[c][a] + p.evictions[c][a]
			cumHits += p.hits[c][a]
			cumLifetime += tail + events
			tail += events
			if cumLifetime > 0 {
				p.density[c][a] = cumHits / cumLifetime
			}
		}
		for a := 0; a <= lhdAgeBuckets; a++ {
			p.hits[c][a] *= lhdEWMADecay
			p.evictions[c][a] *= lhdEWMADecay
		}
	}
}

// hitDensity is the per-byte density of a resident object now.
func (p *LHD) hitDensity(e *sim.StoreEntry[lhdMeta]) float64 {
	return p.density[e.Payload.class][p.ageBucket(e.Payload.lastAccess)] / float64(e.Size)
}

// evictOne removes the lowest-density object among a random sample of the
// store's dense index.
func (p *LHD) evictOne() {
	var victim *sim.StoreEntry[lhdMeta]
	best := math.Inf(1)
	for i := min(evictionSamples, p.store.Len()); i > 0; i-- {
		e := p.store.At(p.rng.Intn(p.store.Len()))
		if d := p.hitDensity(e); d < best {
			best, victim = d, e
		}
	}
	p.evictions[victim.Payload.class][p.ageBucket(victim.Payload.lastAccess)]++
	p.store.Remove(victim.ID)
}

// Request implements sim.Policy.
func (p *LHD) Request(r trace.Request) bool {
	p.clock++
	p.accesses++
	if p.accesses%lhdReconfigure == 0 {
		p.reconfigure()
	}
	if e := p.store.Get(r.ID); e != nil {
		m := &e.Payload
		p.hits[m.class][p.ageBucket(m.lastAccess)]++
		m.lastAccess = p.clock
		return true
	}
	if r.Size > p.store.Capacity() {
		return false
	}
	for !p.store.Fits(r.Size) {
		p.evictOne()
	}
	p.store.Add(r.ID, r.Size).Payload = lhdMeta{lastAccess: p.clock, class: lhdClass(r.Size)}
	return false
}
