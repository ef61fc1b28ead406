// Package tiered implements the hierarchical cache model the paper
// proposes in §5 ("Is model-based learning extensible?"): apply LFO's
// single-cache model to the aggregate cache space of a CDN server (RAM +
// SSD + HDD), learning first whether to cache an object at all, and then
// where to place it based on storage characteristics.
//
// A TieredCache is a stack of byte-accurate tiers. Lookups probe tiers in
// order; a hit in a lower tier promotes the object toward the top. On a
// miss, a sim.Admitter decides whether to cache the object at all (level one
// of the hierarchical model — typically LFO's learned admission), and a
// Placer maps the admission likelihood and object size onto a tier (level
// two — e.g. likely-hot small objects to RAM, bulky or lukewarm objects
// to SSD/HDD). Evictions demote objects to the next tier down instead of
// discarding them; the bottom tier evicts to the origin.
package tiered

import (
	"container/list"
	"fmt"

	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// Tier describes one storage level.
type Tier struct {
	// Name labels the tier in stats (e.g. "ram", "ssd", "hdd").
	Name string
	// Capacity is the tier size in bytes.
	Capacity int64
	// ReadCost is the per-request cost of serving a hit from this tier
	// (e.g. a relative latency). Used only for reporting.
	ReadCost float64
}

// AdmitAll admits everything with likelihood 1.
type AdmitAll struct{}

// Admit implements sim.Admitter.
func (AdmitAll) Admit(r trace.Request, freeBytes int64) (bool, float64) { return true, 1 }

// Observe implements sim.Admitter.
func (AdmitAll) Observe(trace.Request) {}

// SizeThreshold admits objects up to MaxSize bytes.
type SizeThreshold struct {
	MaxSize int64
}

// Admit implements sim.Admitter.
func (s SizeThreshold) Admit(r trace.Request, freeBytes int64) (bool, float64) {
	if r.Size <= s.MaxSize {
		return true, 1
	}
	return false, 0
}

// Observe implements sim.Admitter.
func (SizeThreshold) Observe(trace.Request) {}

// ModelAdmitter is the learned level-one decision of §5's hierarchical
// model: a trained LFO admission model over the aggregate cache space.
type ModelAdmitter struct {
	model   *gbdt.Model
	tracker *features.Tracker
	cutoff  float64
	buf     []float64
}

// NewModelAdmitter wraps a trained model as an admitter. cutoff follows
// sim.ResolveCutoff (0 means 0.5, sim.CutoffAdmitAll means exactly 0);
// a value outside [0, 1] is a programming error and panics.
func NewModelAdmitter(m *gbdt.Model, cutoff float64) *ModelAdmitter {
	cutoff, err := sim.ResolveCutoff(cutoff)
	if err != nil {
		panic("tiered: " + err.Error())
	}
	return &ModelAdmitter{
		model:   m,
		tracker: features.NewTracker(0),
		cutoff:  cutoff,
		buf:     make([]float64, features.Dim),
	}
}

// Admit implements sim.Admitter.
func (a *ModelAdmitter) Admit(r trace.Request, freeBytes int64) (bool, float64) {
	a.tracker.Features(r, freeBytes, a.buf)
	p := a.model.Predict(a.buf)
	return p >= a.cutoff, p
}

// Observe implements sim.Admitter.
func (a *ModelAdmitter) Observe(r trace.Request) { a.tracker.Update(r) }

// Placer maps an admitted object to a tier index (0 = fastest).
type Placer func(r trace.Request, likelihood float64) int

// PlaceBySize returns a Placer that places objects into the first tier
// whose size bound is >= the object size. bounds has one entry per tier
// except the last (which takes everything).
func PlaceBySize(bounds ...int64) Placer {
	return func(r trace.Request, likelihood float64) int {
		for i, b := range bounds {
			if r.Size <= b {
				return i
			}
		}
		return len(bounds)
	}
}

// PlaceByLikelihood returns a Placer that places hot predictions (>= hot)
// into tier 0, lukewarm (>= warm) into tier 1, everything else into the
// last tier.
func PlaceByLikelihood(hot, warm float64) Placer {
	return func(r trace.Request, likelihood float64) int {
		switch {
		case likelihood >= hot:
			return 0
		case likelihood >= warm:
			return 1
		default:
			return 2
		}
	}
}

// Stats reports per-tier hit counts.
type Stats struct {
	// Hits[i] counts hits served by tier i.
	Hits []int
	// HitBytes[i] counts bytes served by tier i.
	HitBytes []int64
	// ReadCost accumulates Σ hits_i × ReadCost_i.
	ReadCost float64
	// Demotions counts objects moved down a tier on eviction.
	Demotions int
}

// TieredCache is a hierarchical cache. It implements sim.Policy; a hit in
// any tier counts as a hit.
type TieredCache struct {
	tiers    []Tier
	stores   []*sim.Store[*list.Element]
	lrus     []*list.List
	admitter sim.Admitter
	placer   Placer
	stats    Stats
}

// New returns a tiered cache. At least one tier is required; the placer
// may return any index in [0, len(tiers)); out-of-range placements are
// clamped.
func New(tiers []Tier, admitter sim.Admitter, placer Placer) (*TieredCache, error) {
	if len(tiers) == 0 {
		return nil, fmt.Errorf("tiered: at least one tier required")
	}
	if admitter == nil {
		admitter = AdmitAll{}
	}
	if placer == nil {
		placer = func(trace.Request, float64) int { return 0 }
	}
	c := &TieredCache{
		tiers:    tiers,
		admitter: admitter,
		placer:   placer,
	}
	for _, t := range tiers {
		if t.Capacity <= 0 {
			return nil, fmt.Errorf("tiered: tier %q has non-positive capacity", t.Name)
		}
		c.stores = append(c.stores, sim.NewStore[*list.Element](t.Capacity))
		c.lrus = append(c.lrus, list.New())
	}
	c.stats.Hits = make([]int, len(tiers))
	c.stats.HitBytes = make([]int64, len(tiers))
	return c, nil
}

// Name implements sim.Policy.
func (c *TieredCache) Name() string { return "Tiered" }

// Stats returns per-tier hit statistics.
func (c *TieredCache) Stats() Stats { return c.stats }

// FreeBytes returns the aggregate free space across tiers — the §5 idea
// of treating RAM+SSD+HDD as one aggregate cache space for the model.
func (c *TieredCache) FreeBytes() int64 {
	var free int64
	for _, s := range c.stores {
		free += s.Free()
	}
	return free
}

// Request implements sim.Policy.
func (c *TieredCache) Request(r trace.Request) bool {
	// Probe tiers top-down.
	for i, s := range c.stores {
		if e := s.Get(r.ID); e != nil {
			c.stats.Hits[i]++
			c.stats.HitBytes[i] += r.Size
			c.stats.ReadCost += c.tiers[i].ReadCost
			c.lrus[i].MoveToFront(e.Payload)
			// Promote hits from lower tiers one level up (standard
			// multi-level caching; keeps hot objects migrating toward
			// RAM).
			if i > 0 && r.Size <= c.tiers[i-1].Capacity {
				c.removeFrom(i, r.ID)
				c.insertInto(i-1, r)
			}
			c.admitter.Observe(r)
			return true
		}
	}

	admit, likelihood := c.admitter.Admit(r, c.FreeBytes())
	c.admitter.Observe(r)
	if !admit {
		return false
	}
	tier := c.placer(r, likelihood)
	if tier < 0 {
		tier = 0
	}
	if tier >= len(c.tiers) {
		tier = len(c.tiers) - 1
	}
	// Skip tiers the object cannot physically fit.
	for tier < len(c.tiers) && r.Size > c.tiers[tier].Capacity {
		tier++
	}
	if tier == len(c.tiers) {
		return false
	}
	c.insertInto(tier, r)
	return false
}

// insertInto places an object at the head of a tier, demoting evicted
// objects down the hierarchy.
func (c *TieredCache) insertInto(tier int, r trace.Request) {
	s := c.stores[tier]
	for !s.Fits(r.Size) {
		tail := c.lrus[tier].Back()
		victim := tail.Value.(trace.ObjectID)
		victimSize := s.Get(victim).Size
		c.removeFrom(tier, victim)
		// Demote to the next tier down if it fits there at all.
		if next := tier + 1; next < len(c.tiers) && victimSize <= c.tiers[next].Capacity {
			c.stats.Demotions++
			c.insertInto(next, trace.Request{ID: victim, Size: victimSize})
		}
	}
	e := s.Add(r.ID, r.Size)
	e.Payload = c.lrus[tier].PushFront(r.ID)
}

func (c *TieredCache) removeFrom(tier int, id trace.ObjectID) {
	e := c.stores[tier].Get(id)
	c.lrus[tier].Remove(e.Payload)
	c.stores[tier].Remove(id)
}
