// Package ogd implements an online gradient-based caching policy in the
// style of Paschos et al.'s online convex optimization formulation of
// caching and Carra/Neglia's logarithmic-complexity implementation of it.
//
// The policy maintains a *fractional* cache allocation y ∈ [0,1]^N with
// Σ sᵢ·yᵢ ≤ C (C the capacity in bytes). Each request to object i is a
// (sub)gradient of the linear utility wᵢ·sᵢ·yᵢ — the retrieval cost saved
// if a wᵢ-per-byte object is (fractionally) cached — so online gradient
// descent takes a step on the requested coordinate alone:
//
//	yᵢ ← min(1, yᵢ + η·ŵᵢ)   with ŵᵢ = (costᵢ/sizeᵢ) / mean cost density
//
// and then restores feasibility by pushing the allocation back inside the
// capacity polytope. The exact Euclidean projection touches every
// coordinate; following Carra/Neglia, the implementation substitutes the
// standard lazy projection that removes mass from the *smallest*
// coordinates first (pop-min on an indexed heap) until Σ sᵢ·yᵢ ≤ C. Every
// request therefore costs O(log n) amortized: one heap update for the
// gradient step plus pop-mins that are each paid for by a previous
// insertion.
//
// Because a real cache stores whole objects, the fractional state is
// rounded deterministically: an object is admitted to the integral cache
// (an evict.Residents of kind rank) when its allocation reaches
// RoundThreshold, and evictions pop the resident with the smallest
// allocation. No randomness anywhere — the policy is byte-identical
// across reruns, seeds, and worker counts (nothing in it is parallel),
// which is what lets the hybrid bridge in internal/core lean on it
// between window retrains.
package ogd

import (
	"fmt"

	"lfo/internal/evict"
	"lfo/internal/pq"
	"lfo/internal/trace"
)

// DefaultEta is the default gradient step scale. An average-cost-density
// object steps by exactly Eta per request, so 0.25 crosses the default
// rounding threshold on its second request absent capacity pressure —
// close to the second-hit heuristic CDNs deploy, but weighted by cost
// density and capacity competition.
const DefaultEta = 0.25

// DefaultRoundThreshold is the fractional allocation at which the
// deterministic rounding admits an object to the integral cache.
const DefaultRoundThreshold = 0.5

// Config parameterizes the policy.
type Config struct {
	// CacheSize is the capacity in bytes. Required.
	CacheSize int64
	// Eta is the gradient step scale; 0 means DefaultEta. Must not be
	// negative.
	Eta float64
	// RoundThreshold is the y at which rounding admits an object; 0 means
	// DefaultRoundThreshold. Must lie in (0, 1].
	RoundThreshold float64
}

func (c Config) withDefaults() Config {
	if c.Eta == 0 {
		c.Eta = DefaultEta
	}
	if c.RoundThreshold == 0 {
		c.RoundThreshold = DefaultRoundThreshold
	}
	return c
}

func (c Config) validate() error {
	if c.Eta < 0 {
		return fmt.Errorf("ogd: Eta must be non-negative, got %v", c.Eta)
	}
	if c.RoundThreshold <= 0 || c.RoundThreshold > 1 {
		return fmt.Errorf("ogd: RoundThreshold must be in (0,1], got %v", c.RoundThreshold)
	}
	return nil
}

// Learner is the fractional OGD state on its own, without the integral
// rounding: a capacity-constrained allocation updated per request. The
// Cache embeds one; internal/core's hybrid admission runs one as a shadow
// learner whose allocations steer the per-class bias between retrains.
type Learner struct {
	capacity int64
	eta      float64
	// frac holds every object with yᵢ > 0, min-y first, so the lazy
	// projection pops the smallest coordinates. Priorities are the yᵢ.
	frac *pq.Queue
	// sizes remembers sᵢ for every object in frac (the projection needs
	// byte masses, not just allocations).
	sizes map[trace.ObjectID]int64
	// mass is Σ sᵢ·yᵢ, maintained incrementally and clamped back to the
	// capacity by every projection, so float drift cannot accumulate.
	mass float64
	// wSum and wCount track the running mean cost density (cost/size)
	// over all requests seen, making the step scale-free: a request of
	// average density steps by exactly Eta whatever the trace's cost
	// objective (unit costs, byte costs, latency costs).
	wSum   float64
	wCount int64
}

// NewLearner returns a fractional OGD learner.
func NewLearner(cfg Config) (*Learner, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.CacheSize <= 0 {
		return nil, fmt.Errorf("ogd: CacheSize must be positive, got %d", cfg.CacheSize)
	}
	return &Learner{
		capacity: cfg.CacheSize,
		eta:      cfg.Eta,
		frac:     pq.New(),
		sizes:    make(map[trace.ObjectID]int64, 1024),
	}, nil
}

// Update takes the gradient step for one request and projects back onto
// the capacity constraint, returning the object's post-projection
// fractional allocation. This is the per-request hot path: heap
// operations recycle entries through pq's freelist and the map churns
// over a steady-state population, so a warmed learner allocates nothing.
//
//lfo:hotpath
func (l *Learner) Update(r trace.Request) float64 {
	// Per-byte utility, normalized by the running mean density so the
	// step size is invariant to the trace's cost scale. A costless
	// request (a trace without costs) falls back to cost == size, the
	// byte-hit-ratio objective.
	w := r.Cost / float64(r.Size)
	if r.Cost <= 0 {
		w = 1
	}
	l.wSum += w
	l.wCount++
	w *= float64(l.wCount) / l.wSum
	y, tracked := l.frac.Priority(r.ID)
	newY := y + l.eta*w
	if newY > 1 {
		newY = 1
	}
	if tracked {
		l.frac.Update(r.ID, newY)
	} else {
		l.frac.Push(r.ID, newY)
		l.sizes[r.ID] = r.Size
	}
	l.mass += (newY - y) * float64(r.Size)

	// Lazy projection: shave the smallest allocations until the byte
	// mass fits. Each full removal is paid for by the Push that created
	// the entry; at most one partial reduction per request.
	capf := float64(l.capacity)
	for l.mass > capf && l.frac.Len() > 0 {
		id, my := l.frac.Min()
		sz := float64(l.sizes[id])
		excess := l.mass - capf
		if my*sz <= excess {
			l.frac.Remove(id)
			delete(l.sizes, id)
			l.mass -= my * sz
		} else {
			l.frac.Update(id, my-excess/sz)
			l.mass = capf
		}
	}

	y, tracked = l.frac.Priority(r.ID)
	if !tracked {
		return 0
	}
	return y
}

// Y returns the object's current fractional allocation (0 if untracked).
func (l *Learner) Y(id trace.ObjectID) float64 {
	y, _ := l.frac.Priority(id)
	return y
}

// Mass returns the allocated byte mass Σ sᵢ·yᵢ (always ≤ capacity after
// an Update returns).
func (l *Learner) Mass() float64 { return l.mass }

// Tracked returns the number of objects with a positive allocation.
func (l *Learner) Tracked() int { return l.frac.Len() }

// Cache is the integral caching policy: the fractional learner plus
// deterministic rounding. It implements sim.Policy.
type Cache struct {
	learner *Learner
	thresh  float64
	// res ranks residents by the fractional allocation they held at
	// their last request (evict's ranked queue, min first), so eviction
	// drops the object the online learner values least.
	res *evict.Residents
}

// New returns an OGD cache. The seed every other policy constructor
// takes is deliberately absent: the policy has no random state.
func New(cfg Config) (*Cache, error) {
	cfg = cfg.withDefaults()
	learner, err := NewLearner(cfg)
	if err != nil {
		return nil, err
	}
	res, err := evict.NewResidents(cfg.CacheSize, "rank", evict.Options{})
	if err != nil {
		return nil, err
	}
	return &Cache{learner: learner, thresh: cfg.RoundThreshold, res: res}, nil
}

// Name implements sim.Policy.
func (c *Cache) Name() string { return "ogd" }

// Learner returns the fractional state backing the cache.
func (c *Cache) Learner() *Learner { return c.learner }

// Request implements sim.Policy: one gradient step, then the rounding
// decision against the integral store.
func (c *Cache) Request(r trace.Request) bool {
	y := c.learner.Update(r)
	if e := c.res.Store.Get(r.ID); e != nil {
		e.Payload.Score = y
		c.res.Evictor.OnHit(e, r)
		return true
	}
	if y >= c.thresh && r.Size <= c.res.Store.Capacity() {
		c.res.Admit(r, y)
	}
	return false
}

// Residents returns the integral cache's resident set.
func (c *Cache) Residents() *evict.Residents { return c.res }
