package policy

import (
	"math"

	"lfo/internal/evict"
	"lfo/internal/trace"
)

// LRUK implements the LRU-K replacement policy (O'Neil et al. [60]):
// evict the resident object whose K-th most recent reference is oldest
// (its "backward K-distance" is largest). Objects with fewer than K
// references have infinite backward K-distance and are evicted first.
//
// Reference history is retained for recently seen non-resident objects as
// well (the paper's HIST), bounded to histCap entries beyond the residents.
// The residents sit in evict's ranked queue keyed by the K-distance.
type LRUK struct {
	res      *evict.Residents // kind rank: score = K-th last reference time (min = oldest = evict)
	k        int
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
		res:     newResidents(capacity, "rank", 0),
		k:       k,
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
			if p.res.Store.Has(old) {
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
	if e := p.res.Store.Get(r.ID); e != nil {
		e.Payload.Score = p.kDistance(h)
		p.res.Evictor.OnHit(e, r)
		return true
	}
	if r.Size <= p.res.Store.Capacity() {
		p.res.Admit(r, p.kDistance(h))
	}
	return false
}
