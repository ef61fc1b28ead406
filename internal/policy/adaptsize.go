package policy

import (
	"math"
	"math/rand"

	"lfo/internal/che"
	"lfo/internal/evict"
	"lfo/internal/trace"
)

// AdaptSize (Berger, Sitaraman, Harchol-Balter, NSDI 2017 [12]) is LRU
// with probabilistic size-aware admission: a missed object of size s is
// admitted with probability e^{−s/c}. The size threshold c is re-tuned
// every tuning window by evaluating candidate values against a Che/Markov
// model of the observed request mix and keeping the candidate with the
// highest predicted object hit ratio.
type AdaptSize struct {
	res *evict.Residents // kind lru
	rng *rand.Rand

	c float64 // current admission parameter

	// Tuning-window statistics.
	window     int
	windowSeen int
	stats      map[trace.ObjectID]*asStat
}

type asStat struct {
	count int
	size  int64
}

// NewAdaptSize returns an AdaptSize cache. The seed drives the admission
// coin flips.
func NewAdaptSize(capacity, seed int64) *AdaptSize {
	return &AdaptSize{
		res:    newLRUResidents(capacity),
		rng:    rand.New(rand.NewSource(seed)),
		c:      float64(capacity) / 100, // permissive start; tuned online
		window: 50000,
		stats:  make(map[trace.ObjectID]*asStat, 4096),
	}
}

// Name implements sim.Policy.
func (p *AdaptSize) Name() string { return "AdaptSize" }

// retune evaluates candidate c values on the window's statistics with the
// Che approximation and adopts the OHR-maximizing candidate.
func (p *AdaptSize) retune() {
	objs := make([]che.Object, 0, len(p.stats))
	for _, s := range p.stats {
		objs = append(objs, che.Object{
			Rate: float64(s.count) / float64(p.windowSeen),
			Size: float64(s.size),
		})
	}
	if len(objs) == 0 {
		return
	}
	bestC, bestOHR := p.c, -1.0
	// Log-spaced candidates from 256 B to 4× capacity.
	for c := 256.0; c <= 4*float64(p.res.Store.Capacity()); c *= 2 {
		for i := range objs {
			objs[i].PAdmit = math.Exp(-objs[i].Size / c)
		}
		ohr, _ := che.Ratios(objs, float64(p.res.Store.Capacity()))
		if ohr > bestOHR {
			bestOHR, bestC = ohr, c
		}
	}
	p.c = bestC
	p.stats = make(map[trace.ObjectID]*asStat, len(p.stats))
	p.windowSeen = 0
}

// Request implements sim.Policy.
func (p *AdaptSize) Request(r trace.Request) bool {
	// Window statistics.
	st := p.stats[r.ID]
	if st == nil {
		st = &asStat{size: r.Size}
		p.stats[r.ID] = st
	}
	st.count++
	p.windowSeen++
	if p.windowSeen >= p.window {
		p.retune()
	}

	if e := p.res.Store.Get(r.ID); e != nil {
		p.res.Evictor.OnHit(e, r)
		return true
	}
	if r.Size > p.res.Store.Capacity() {
		return false
	}
	// Probabilistic size-aware admission.
	if p.rng.Float64() >= math.Exp(-float64(r.Size)/p.c) {
		return false
	}
	p.res.Admit(r, 1)
	return false
}
