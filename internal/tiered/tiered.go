// Package tiered implements the hierarchical cache model the paper
// proposes in §5 ("Is model-based learning extensible?"): apply LFO's
// single-cache model to the aggregate cache space of a CDN server (RAM +
// SSD + HDD), learning first whether to cache an object at all, and then
// where to place it based on storage characteristics.
//
// A TieredCache is a stack of byte-accurate tiers, each an internal/evict
// resident set of kind lru. Lookups probe tiers in order; a hit in a lower
// tier promotes the object one tier toward the top. On a miss, a
// sim.Admitter decides whether to cache the object at all (level one of the
// hierarchical model — typically LFO's learned admission), and a Placer
// maps the admission likelihood and object size onto a tier (level two —
// e.g. likely-hot small objects to RAM, bulky or lukewarm objects to
// SSD/HDD). Evictions demote objects to the next tier down instead of
// discarding them; the bottom tier evicts to the origin. The same stack
// with four equal tiers, admit-all, and every new object placed in the
// bottom tier is segmented LRU: internal/policy's S4LRU is built that way.
package tiered

import (
	"fmt"

	"lfo/internal/evict"
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
	levels   []*evict.Residents // one LRU resident set per tier
	admitter sim.Admitter
	placer   Placer
	stats    Stats
}

// New returns a tiered cache. At least one tier is required; the placer
// may return any index in [0, len(tiers)); out-of-range placements are
// clamped. A nil admitter admits everything; a nil placer places into
// tier 0.
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
	c := &TieredCache{tiers: tiers, admitter: admitter, placer: placer}
	for _, t := range tiers {
		if t.Capacity <= 0 {
			return nil, fmt.Errorf("tiered: tier %q has non-positive capacity", t.Name)
		}
		lvl, err := evict.NewResidents(t.Capacity, "lru", evict.Options{})
		if err != nil {
			return nil, err
		}
		c.levels = append(c.levels, lvl)
	}
	c.stats.Hits = make([]int, len(tiers))
	c.stats.HitBytes = make([]int64, len(tiers))
	return c, nil
}

// Name implements sim.Policy.
func (c *TieredCache) Name() string { return "Tiered" }

// Stats returns per-tier hit statistics.
func (c *TieredCache) Stats() Stats { return c.stats }

// Used returns each tier's resident bytes, top tier first.
func (c *TieredCache) Used() []int64 {
	used := make([]int64, len(c.levels))
	for i, lvl := range c.levels {
		used[i] = lvl.Store.Used()
	}
	return used
}

// FreeBytes returns the aggregate free space across tiers — the §5 idea
// of treating RAM+SSD+HDD as one aggregate cache space for the model.
func (c *TieredCache) FreeBytes() int64 {
	var free int64
	for _, lvl := range c.levels {
		free += lvl.Store.Free()
	}
	return free
}

// Request implements sim.Policy.
func (c *TieredCache) Request(r trace.Request) bool {
	// Probe tiers top-down.
	for i, lvl := range c.levels {
		e := lvl.Store.Get(r.ID)
		if e == nil {
			continue
		}
		c.stats.Hits[i]++
		c.stats.HitBytes[i] += r.Size
		c.stats.ReadCost += c.tiers[i].ReadCost
		// Promote hits from lower tiers one level up (standard multi-level
		// caching; keeps hot objects migrating toward RAM), at the size the
		// object was stored with.
		if i > 0 && e.Size <= c.tiers[i-1].Capacity {
			promoted := r
			promoted.Size = e.Size
			lvl.Evictor.OnRemove(e)
			lvl.Store.Remove(r.ID)
			c.insertInto(i-1, promoted)
		} else {
			lvl.Evictor.OnHit(e, r)
		}
		c.admitter.Observe(r)
		return true
	}

	admit, likelihood := c.admitter.Admit(r, c.FreeBytes())
	c.admitter.Observe(r)
	if !admit {
		return false
	}
	tier := min(max(c.placer(r, likelihood), 0), len(c.tiers)-1)
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

// insertInto places an object at the head of a tier, demoting the tier's
// least recently used objects down the hierarchy to make room.
func (c *TieredCache) insertInto(tier int, r trace.Request) {
	lvl := c.levels[tier]
	for !lvl.Store.Fits(r.Size) {
		victim := lvl.Store.Get(lvl.Evictor.Victim(r.Time))
		demoted := trace.Request{Time: r.Time, ID: victim.ID, Size: victim.Size}
		lvl.Evict(victim.ID)
		// Demote to the next tier down if it fits there at all.
		if next := tier + 1; next < len(c.tiers) && demoted.Size <= c.tiers[next].Capacity {
			c.stats.Demotions++
			c.insertInto(next, demoted)
		}
	}
	lvl.Admit(r, 0)
}
