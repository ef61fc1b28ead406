// Package policy is the table of caching systems the paper compares LFO
// against (Fig 1 and Fig 6): RND, FIFO, LRU, LRU-K, LFU, LFUDA, GDSF,
// GD-Wheel, S4LRU, AdaptSize, Hyperbolic, LHD, a model-free RL baseline
// (RLC), OGD, and a TinyLFU extension. None keeps a store of its own:
// RND, FIFO, LRU, LFU, LFUDA, GDSF, GD-Wheel, Hyperbolic and LHD are
// internal/evict's evictor kinds behind one admit-all adapter, the code
// the eviction grid's columns and LFO's own eviction run; LRU-K and OGD
// key evict's ranked queue with their own score; RLC, TinyLFU and
// AdaptSize add their admission logic to an evict.Residents of kind lru;
// S4LRU is internal/tiered's multi-level LRU with four equal tiers.
// All policies implement sim.Policy, are byte-accurate, and are
// deterministic given their construction parameters.
package policy

import (
	"fmt"
	"sort"

	"lfo/internal/evict"
	"lfo/internal/policy/ogd"
	"lfo/internal/sim"
	"lfo/internal/tiered"
	"lfo/internal/trace"
)

// Constructor builds a policy instance for a given cache capacity (bytes)
// and deterministic seed (used only by randomized policies).
type Constructor func(capacity int64, seed int64) sim.Policy

// registry maps policy names to constructors.
var registry = map[string]Constructor{
	"rnd":        heuristic("rnd", "RND"),
	"fifo":       heuristic("fifo", "FIFO"),
	"lru":        heuristic("lru", "LRU"),
	"lruk":       func(c, s int64) sim.Policy { return NewLRUK(c, 2) },
	"lfu":        heuristic("lfu", "LFU"),
	"lfuda":      heuristic("lfuda", "LFUDA"),
	"gdsf":       heuristic("gdsf", "GDSF"),
	"gdwheel":    heuristic("gdwheel", "GD-Wheel"),
	"s4lru":      func(c, s int64) sim.Policy { return NewS4LRU(c) },
	"adaptsize":  func(c, s int64) sim.Policy { return NewAdaptSize(c, s) },
	"hyperbolic": heuristic("hyperbolic", "Hyperbolic"),
	"lhd":        heuristic("lhd", "LHD"),
	"tinylfu":    func(c, s int64) sim.Policy { return NewTinyLFU(c) },
	"rlc":        func(c, s int64) sim.Policy { return NewRLC(c, s) },
	"ogd": func(c, s int64) sim.Policy {
		p, err := ogd.New(ogd.Config{CacheSize: c})
		if err != nil {
			panic(err) // only reachable with a non-positive capacity
		}
		return p
	},
}

// New constructs a policy by name. Names returns the valid names.
func New(name string, capacity, seed int64) (sim.Policy, error) {
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (valid: %v)", name, Names())
	}
	return c(capacity, seed), nil
}

// Names returns the registered policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// heuristic builds the baseline of the given evictor kind, reported under
// its table name, as an admit-all cache; the seed reaches the sampling
// evictors' draws.
func heuristic(kind, name string) Constructor {
	return func(capacity, seed int64) sim.Policy {
		return &admitAll{res: newResidents(capacity, kind, seed), name: name}
	}
}

// admitAll is a resident set that admits every object that fits. Its clock
// is the request count, oversized requests included: the time Hyperbolic
// and LHD measure ages in, and which the other kinds ignore.
type admitAll struct {
	res   *evict.Residents
	name  string
	count int64
}

// Name implements sim.Policy.
func (p *admitAll) Name() string { return p.name }

// Request implements sim.Policy.
func (p *admitAll) Request(r trace.Request) bool {
	p.count++
	r.Time = p.count
	if e := p.res.Store.Get(r.ID); e != nil {
		p.res.Evictor.OnHit(e, r)
		return true
	}
	if r.Size <= p.res.Store.Capacity() {
		p.res.Admit(r, 1)
	}
	return false
}

// s4Segments is S4LRU's queue count (Huang et al., SOSP 2013 [33]).
const s4Segments = 4

// NewS4LRU returns segmented LRU with four equally sized segments, built as
// a tiered cache of four equal tiers: admit-all, every new object enters
// the bottom tier, a hit promotes an object one tier up, and a tier's
// overflow demotes its least recent objects one tier down, the bottom
// tier's to the origin. Below 4 B there is no whole byte per segment, so
// the cache has one 1-byte tier per byte of capacity.
func NewS4LRU(capacity int64) sim.Policy {
	n := min(max(capacity, 0), s4Segments)
	tiers := make([]tiered.Tier, n)
	for i := range tiers {
		tiers[i].Capacity = capacity / n
	}
	c, err := tiered.New(tiers, nil, func(trace.Request, float64) int { return len(tiers) - 1 })
	if err != nil {
		panic(err) // only reachable with a non-positive capacity
	}
	return named{c, "S4LRU"}
}

// named reports a cache under its baseline table name.
type named struct {
	sim.Policy
	name string
}

// Name implements sim.Policy.
func (n named) Name() string { return n.name }

// newResidents is a baseline's resident set under the evictor kind, whose
// draws, if it samples, are seeded with seed.
func newResidents(capacity int64, kind string, seed int64) *evict.Residents {
	res, err := evict.NewResidents(capacity, kind, evict.Options{Seed: seed})
	if err != nil {
		panic(err) // the table names only kinds
	}
	return res
}
