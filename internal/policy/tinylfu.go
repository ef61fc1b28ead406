package policy

import (
	"lfo/internal/evict"
	"lfo/internal/sketch"
	"lfo/internal/trace"
)

// TinyLFU (Einziger & Friedman [24]) wraps an LRU cache with a
// frequency-based admission filter: on a miss with a full cache, the
// candidate is admitted only if its sketched frequency exceeds that of the
// LRU victim it would displace. A doorkeeper Bloom filter absorbs one-hit
// wonders, and the sketch is halved every sample window to age estimates.
//
// TinyLFU is not part of the paper's Fig 6 line-up; it is included as the
// natural admission-control baseline for LFO's admission learning.
type TinyLFU struct {
	res  *evict.Residents // kind lru
	cm   *sketch.CountMin
	door *sketch.Bloom

	sampleSize int
	samples    int
}

// NewTinyLFU returns an LRU cache guarded by a TinyLFU admission filter.
func NewTinyLFU(capacity int64) *TinyLFU {
	// Sketch width proportional to the expected object count, assuming
	// ~16KB mean objects, clamped to a sane range.
	width := int(capacity / (16 << 10))
	if width < 1<<12 {
		width = 1 << 12
	}
	if width > 1<<22 {
		width = 1 << 22
	}
	return &TinyLFU{
		res:        newResidents(capacity, "lru", 0),
		cm:         sketch.NewCountMin(width, 4),
		door:       sketch.NewBloom(width*4, 3),
		sampleSize: width * 8,
	}
}

// Name implements sim.Policy.
func (p *TinyLFU) Name() string { return "TinyLFU" }

// record counts an access in the doorkeeper/sketch hierarchy and returns
// the object's current frequency estimate.
func (p *TinyLFU) record(id trace.ObjectID) byte {
	key := uint64(id)
	p.samples++
	if p.samples >= p.sampleSize {
		p.cm.Reset()
		p.door.Clear()
		p.samples = 0
	}
	if !p.door.Add(key) {
		// First sighting in this window: the doorkeeper absorbs it.
		return p.estimate(id)
	}
	p.cm.Add(key)
	return p.estimate(id)
}

// estimate returns the doorkeeper-aware frequency estimate.
func (p *TinyLFU) estimate(id trace.ObjectID) byte {
	key := uint64(id)
	est := p.cm.Estimate(key)
	if p.door.Contains(key) && est < 15 {
		est++
	}
	return est
}

// Request implements sim.Policy.
func (p *TinyLFU) Request(r trace.Request) bool {
	freq := p.record(r.ID)
	store := p.res.Store
	if e := store.Get(r.ID); e != nil {
		p.res.Evictor.OnHit(e, r)
		return true
	}
	if r.Size > store.Capacity() {
		return false
	}
	// Admission duel: candidate vs the victims it would displace.
	for !store.Fits(r.Size) {
		victim := p.res.Evictor.Victim(r.Time)
		if p.estimate(victim) >= freq {
			return false // victim wins; candidate is not admitted
		}
		p.res.Evict(victim)
	}
	p.res.Admit(r, 1)
	return false
}
