package policy

import (
	"math"

	"lfo/internal/pq"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// LRUK implements the LRU-K replacement policy (O'Neil et al. [60]):
// evict the resident object whose K-th most recent reference is oldest
// (its "backward K-distance" is largest). Objects with fewer than K
// references have infinite backward K-distance and are evicted first.
//
// Reference history is retained for recently seen non-resident objects as
// well (the paper's HIST), bounded to historyLimit entries.
type LRUK struct {
	store    *sim.Store[struct{}]
	k        int
	pq       *pq.Queue // priority = K-th last reference time (min = oldest = evict)
	hist     map[trace.ObjectID][]int64
	histCap  int
	histFIFO []trace.ObjectID
	clock    int64
}

// NewLRUK returns an LRU-K cache (typically k=2).
func NewLRUK(capacity int64, k int) *LRUK {
	if k < 1 {
		panic("policy: LRU-K requires k >= 1")
	}
	return &LRUK{
		store:   sim.NewStore[struct{}](capacity),
		k:       k,
		pq:      pq.New(),
		hist:    make(map[trace.ObjectID][]int64, 1024),
		histCap: 1 << 20,
	}
}

// Name implements sim.Policy.
func (p *LRUK) Name() string { return "LRU-K" }

// kDistance returns the K-th most recent reference time, or -Inf when the
// object has fewer than K references (making it the preferred victim).
func (p *LRUK) kDistance(h []int64) float64 {
	if len(h) < p.k {
		return math.Inf(-1)
	}
	return float64(h[len(h)-p.k])
}

// touch appends a reference and trims history to K entries.
func (p *LRUK) touch(id trace.ObjectID) []int64 {
	h, seen := p.hist[id]
	h = append(h, p.clock)
	if len(h) > p.k {
		h = h[len(h)-p.k:]
	}
	p.hist[id] = h
	if !seen {
		// At most one pass over the older entries. A resident's history is
		// never dropped: it goes back to the tail, to leave once evicted.
		for n := len(p.histFIFO); len(p.hist) > p.histCap && n > 0; n-- {
			old := p.histFIFO[0]
			p.histFIFO = p.histFIFO[1:]
			if p.store.Has(old) {
				p.histFIFO = append(p.histFIFO, old)
			} else {
				delete(p.hist, old)
			}
		}
		p.histFIFO = append(p.histFIFO, id)
	}
	return h
}

// Request implements sim.Policy.
func (p *LRUK) Request(r trace.Request) bool {
	p.clock++
	h := p.touch(r.ID)
	if p.store.Has(r.ID) {
		p.pq.Update(r.ID, p.kDistance(h))
		return true
	}
	if r.Size > p.store.Capacity() {
		return false
	}
	for !p.store.Fits(r.Size) {
		id, _ := p.pq.PopMin()
		p.store.Remove(id)
	}
	p.store.Add(r.ID, r.Size)
	p.pq.Push(r.ID, p.kDistance(h))
	return false
}
