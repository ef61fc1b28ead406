package ogd

// The parent implementation of the integral cache, kept verbatim (renamed)
// as the oracle TestCacheMatchesReference replays Cache against: a private
// sim.Store beside a pq.Queue of the residents' allocations. Cache now
// keys evict's ranked queue with the allocation instead.

import (
	"fmt"
	"testing"

	"lfo/internal/gen"
	"lfo/internal/pq"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// referenceCache is the integral caching policy: the fractional learner plus
// deterministic rounding. It implements sim.Policy.
type referenceCache struct {
	learner *Learner
	thresh  float64
	store   *sim.Store[struct{}]
	// res ranks residents by the fractional allocation they held at
	// their last request, min first, so eviction drops the object the
	// online learner values least.
	res *pq.Queue
}

// newReferenceCache returns an OGD cache. The seed every other policy constructor
// takes is deliberately absent: the policy has no random state.
func newReferenceCache(cfg Config) (*referenceCache, error) {
	cfg = cfg.withDefaults()
	learner, err := NewLearner(cfg)
	if err != nil {
		return nil, err
	}
	return &referenceCache{
		learner: learner,
		thresh:  cfg.RoundThreshold,
		store:   sim.NewStore[struct{}](cfg.CacheSize),
		res:     pq.New(),
	}, nil
}

// Name implements sim.Policy.
func (c *referenceCache) Name() string { return "ogd" }

// Request implements sim.Policy: one gradient step, then the rounding
// decision against the integral store.
func (c *referenceCache) Request(r trace.Request) bool {
	y := c.learner.Update(r)
	if c.store.Has(r.ID) {
		c.res.Update(r.ID, y)
		return true
	}
	if y >= c.thresh && r.Size <= c.store.Capacity() {
		for !c.store.Fits(r.Size) {
			id, _ := c.res.PopMin()
			c.store.Remove(id)
		}
		c.store.Add(r.ID, r.Size)
		c.res.Push(r.ID, y)
	}
	return false
}

// TestCacheMatchesReference replays Cache against referenceCache and fails
// at the first request whose hit differs: CDN and web mixes × BHR and OHR
// costs × 1, 16 and 256 MiB × trace seeds 1 and 42.
func TestCacheMatchesReference(t *testing.T) {
	const n = 60000
	for _, mix := range []struct {
		name string
		cfg  func(int, int64) gen.Config
	}{{"cdn", gen.CDNMix}, {"web", gen.WebMix}} {
		for _, seed := range []int64{1, 42} {
			tr, err := gen.Generate(mix.cfg(n, seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, obj := range []trace.Objective{trace.ObjectiveBHR, trace.ObjectiveOHR} {
				costed := tr.WithCosts(obj)
				for _, size := range []int64{1 << 20, 16 << 20, 256 << 20} {
					t.Run(fmt.Sprintf("%s/seed%d/%s/%dMiB", mix.name, seed, obj, size>>20), func(t *testing.T) {
						got, err := New(Config{CacheSize: size})
						if err != nil {
							t.Fatal(err)
						}
						want, err := newReferenceCache(Config{CacheSize: size})
						if err != nil {
							t.Fatal(err)
						}
						for i, r := range costed.Requests {
							if g, w := got.Request(r), want.Request(r); g != w {
								t.Fatalf("request %d (id %d, size %d): hit=%v, reference hit=%v", i, r.ID, r.Size, g, w)
							}
						}
					})
				}
			}
		}
	}
}
