package evict

import (
	"math"
	"math/bits"
	"math/rand"

	"lfo/internal/gbdt"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// drawer is the state of the baselines that pick victims from uniform
// draws over the store's dense index (RND, Hyperbolic, LHD): the store and
// a seeded math/rand stream.
type drawer struct {
	sampler
	store *sim.Store[Meta]
	rng   *rand.Rand
}

func newDrawer(store *sim.Store[Meta], seed int64) drawer {
	return drawer{store: store, rng: rand.New(rand.NewSource(seed))}
}

// draw returns a uniformly drawn resident.
func (d *drawer) draw() *sim.StoreEntry[Meta] { return d.store.At(d.rng.Intn(d.store.Len())) }

func (d *drawer) SetModel(m *gbdt.Model) {}

// hyperbolic is Hyperbolic caching (Blankstein, Sen, Freedman, ATC 2017):
// it ranks objects by frequency divided by time in cache, which — unlike
// LRU or LFU — has no fixed decay shape, per byte so that large objects
// must earn their keep (the size-aware variant). A victim is the
// lowest-priority of min(K, Len) draws.
type hyperbolic struct{ drawer }

func (h *hyperbolic) Name() string { return "hyperbolic" }

// hyperbolicPriority is the rank of a resident at time now: accesses per
// unit of time in cache (at least 1), per byte.
func hyperbolicPriority(e *sim.StoreEntry[Meta], now int64) float64 {
	age := max(now-e.Payload.AdmitTime, 1)
	return float64(e.Payload.Freq) / (float64(age) * float64(e.Size))
}

func (h *hyperbolic) Victim(now int64) trace.ObjectID {
	var victim *sim.StoreEntry[Meta]
	best := -1.0
	for i := min(DefaultCandidates, h.store.Len()); i > 0; i-- {
		e := h.draw()
		if pr := hyperbolicPriority(e, now); best < 0 || pr < best {
			best, victim = pr, e
		}
	}
	return victim.ID
}

// LHD geometry.
const (
	lhdAgeBuckets  = 128   // coarsened age histogram size
	lhdSizeClasses = 16    // objects are classified by log2(size)
	lhdAgeShift    = 6     // age bucket = (now - lastAccess) >> shift
	lhdReconfigure = 20000 // time between density-table rebuilds
	lhdEWMADecay   = 0.9   // histogram decay per reconfiguration
)

// lhd (Beckmann, Chen, Cidon, NSDI 2018) evicts by lowest hit density: the
// expected hits per byte·time an object will deliver if kept. It follows
// the paper's structure — per-class age histograms of hits and evictions,
// folded into a hit-density table with exponential decay every
// lhdReconfigure of time, and a victim that is the minimum-density of
// min(K, Len) draws. Classes here are log2-size classes.
type lhd struct {
	drawer
	hits      [lhdSizeClasses][lhdAgeBuckets + 1]float64
	evictions [lhdSizeClasses][lhdAgeBuckets + 1]float64
	density   [lhdSizeClasses][lhdAgeBuckets + 1]float64
	// rebuilds counts the density rebuilds so far: one per whole
	// lhdReconfigure of time, made up at the first hook that touches the
	// tables at or after its multiple, which nothing between could tell.
	rebuilds int64
}

func newLHD(store *sim.Store[Meta], seed int64) *lhd {
	l := &lhd{drawer: newDrawer(store, seed)}
	// Optimistic priors: young objects look promising until data says
	// otherwise.
	for c := 0; c < lhdSizeClasses; c++ {
		for a := 0; a <= lhdAgeBuckets; a++ {
			l.density[c][a] = 1 / float64(a+1)
		}
	}
	return l
}

func (l *lhd) Name() string { return "lhd" }

func (l *lhd) OnHit(e *sim.StoreEntry[Meta], r trace.Request) {
	l.rebuild(r.Time)
	l.hits[lhdClass(e.Size)][lhdAgeBucket(r.Time, e.Payload.LastAccess)]++
	e.Payload.touched(r)
}

func (l *lhd) Victim(now int64) trace.ObjectID {
	l.rebuild(now)
	var victim *sim.StoreEntry[Meta]
	best := math.Inf(1)
	for i := min(DefaultCandidates, l.store.Len()); i > 0; i-- {
		e := l.draw()
		if d := l.density[lhdClass(e.Size)][lhdAgeBucket(now, e.Payload.LastAccess)] / float64(e.Size); d < best {
			best, victim = d, e
		}
	}
	l.evictions[lhdClass(victim.Size)][lhdAgeBucket(now, victim.Payload.LastAccess)]++
	return victim.ID
}

func lhdClass(size int64) int {
	return min(bits.Len64(uint64(size)), lhdSizeClasses-1) // log2 bucket
}

// lhdAgeBucket is the histogram bucket of a resident last accessed at
// lastAccess, at time now; a time before lastAccess is age 0.
func lhdAgeBucket(now, lastAccess int64) int {
	return int(min(max(now-lastAccess, 0)>>lhdAgeShift, lhdAgeBuckets))
}

// rebuild runs the density rebuilds due by time now.
func (l *lhd) rebuild(now int64) {
	for ; l.rebuilds < now/lhdReconfigure; l.rebuilds++ {
		l.reconfigure()
	}
}

// reconfigure folds the hit/eviction histograms into the density table:
// density(a) = expected hits beyond age a per unit of remaining lifetime,
// then decays the histograms.
func (l *lhd) reconfigure() {
	for c := 0; c < lhdSizeClasses; c++ {
		// Backward scan maintaining, for each age a:
		//   cumHits     = Σ_{t≥a} hits[t]
		//   tail        = Σ_{t>a} (hits[t]+evictions[t])
		//   cumLifetime = Σ_{t≥a} (hits[t]+evictions[t])·(t−a+1)
		// using L(a) = L(a+1) + tail(a+1) + events[a].
		var cumHits, tail, cumLifetime float64
		for a := lhdAgeBuckets; a >= 0; a-- {
			events := l.hits[c][a] + l.evictions[c][a]
			cumHits += l.hits[c][a]
			cumLifetime += tail + events
			tail += events
			if cumLifetime > 0 {
				l.density[c][a] = cumHits / cumLifetime
			}
		}
		for a := 0; a <= lhdAgeBuckets; a++ {
			l.hits[c][a] *= lhdEWMADecay
			l.evictions[c][a] *= lhdEWMADecay
		}
	}
}
