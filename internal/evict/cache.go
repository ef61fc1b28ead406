package evict

import (
	"fmt"

	"lfo/internal/gbdt"
	"lfo/internal/obs"
	"lfo/internal/opt"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// Config parameterizes a combined admission×eviction cache.
type Config struct {
	// CacheSize is the capacity in bytes. Required.
	CacheSize int64
	// Admitter decides admission; nil means admit everything.
	Admitter sim.Admitter
	// AdmitterName labels the admission side in Name() ("admit-all" when
	// the Admitter is nil, "custom" otherwise unless set).
	AdmitterName string
	// Eviction selects the eviction strategy, one of Kinds; default
	// "learned". "rank" evicts the lowest admission likelihood.
	Eviction string
	// Seed seeds the learned evictor's candidate sampler and the draws of
	// the random, hyperbolic and lhd evictors.
	Seed int64
	// WindowSize is the eviction-ranker retrain cadence in requests,
	// matching core's admission window (default 50000). Only the learned
	// evictor trains, on exact OPT labels with gbdt.DefaultParams;
	// heuristic evictors ignore the window entirely.
	WindowSize int
	// Workers caps OPT/GBDT parallelism at retrain time. Results are
	// byte-identical for any value.
	Workers int
	// Obs, when set, records cache and eviction metrics.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Eviction == "" {
		c.Eviction = "learned"
	}
	if c.WindowSize == 0 {
		c.WindowSize = 50000
	}
	if c.AdmitterName == "" {
		if c.Admitter == nil {
			c.AdmitterName = "admit-all"
		} else {
			c.AdmitterName = "custom"
		}
	}
	return c
}

// Cache pairs an admission strategy with an eviction strategy over one
// byte-accurate store, and — when the evictor is learned — retrains the
// eviction ranker from OPT labels every WindowSize requests, deploying
// the new model atomically between requests. It implements sim.Policy.
type Cache struct {
	cfg     Config
	res     *Residents
	learned *Learned // non-nil iff cfg.Eviction == "learned"

	winReqs []trace.Request
	windows int

	cm cacheMetrics
}

// cacheMetrics are the cache-level handles (the eviction-side handles
// live with Residents and the learned evictor).
type cacheMetrics struct {
	requests *obs.Counter
	hits     *obs.Counter
	retrains *obs.Counter
	optNS    *obs.Histogram
	trainNS  *obs.Histogram
}

// New returns a combined admission×eviction cache.
func New(cfg Config) (*Cache, error) {
	cfg = cfg.withDefaults()
	if cfg.CacheSize <= 0 {
		return nil, fmt.Errorf("evict: CacheSize must be positive, got %d", cfg.CacheSize)
	}
	if cfg.WindowSize < 0 {
		return nil, fmt.Errorf("evict: WindowSize must be >= 0, got %d", cfg.WindowSize)
	}
	res, err := NewResidents(cfg.CacheSize, cfg.Eviction, Options{Seed: cfg.Seed, Obs: cfg.Obs})
	if err != nil {
		return nil, err
	}
	c := &Cache{
		cfg: cfg,
		res: res,
		cm: cacheMetrics{
			requests: cfg.Obs.Counter("evict_cache_requests_total"),
			hits:     cfg.Obs.Counter("evict_cache_hits_total"),
			retrains: cfg.Obs.Counter("evict_cache_retrains_total"),
			optNS:    cfg.Obs.Histogram("evict_retrain_opt_ns", obs.LatencyBounds),
			trainNS:  cfg.Obs.Histogram("evict_retrain_train_ns", obs.LatencyBounds),
		},
	}
	c.learned, _ = res.Evictor.(*Learned)
	return c, nil
}

// Name implements sim.Policy.
func (c *Cache) Name() string {
	return c.cfg.AdmitterName + "+" + c.res.Evictor.Name()
}

// Windows returns the number of completed eviction-ranker training
// windows (always 0 for heuristic evictors).
func (c *Cache) Windows() int { return c.windows }

// Free returns the bytes not held by a resident object.
func (c *Cache) Free() int64 { return c.res.Store.Free() }

// Request implements sim.Policy.
func (c *Cache) Request(r trace.Request) bool {
	c.cm.requests.Inc()
	if c.learned != nil {
		c.winReqs = append(c.winReqs, r)
	}

	hit := false
	if e := c.res.Store.Get(r.ID); e != nil {
		hit = true
		c.cm.hits.Inc()
		c.res.Evictor.OnHit(e, r)
	} else if r.Size <= c.res.Store.Capacity() {
		ok, likelihood := true, 1.0
		if c.cfg.Admitter != nil {
			ok, likelihood = c.cfg.Admitter.Admit(r, c.res.Store.Free())
		}
		if ok {
			c.res.Admit(r, likelihood)
		}
	}
	if c.cfg.Admitter != nil {
		c.cfg.Admitter.Observe(r)
	}

	if c.learned != nil && len(c.winReqs) >= c.cfg.WindowSize {
		c.retrain()
	}
	return hit
}

// retrain labels the completed window with OPT and fits a fresh eviction
// ranker, deploying it for the next window. Mirrors core's synchronous
// window handoff; since only the ranker (not admission) trains here, the
// round is a single solve plus a fit.
func (c *Cache) retrain() {
	win := &trace.Trace{Requests: c.winReqs}
	sc := obs.Start(c.cm.optNS)
	res, err := opt.Compute(win, opt.Config{CacheSize: c.cfg.CacheSize, Workers: c.cfg.Workers, Obs: c.cfg.Obs})
	sc.Stop()
	if err != nil {
		panic(fmt.Sprintf("evict: OPT computation failed: %v", err))
	}
	sc = obs.Start(c.cm.trainNS)
	params := gbdt.DefaultParams()
	params.Workers = c.cfg.Workers
	model, err := Train(c.winReqs, res.Admit, params)
	sc.Stop()
	if err != nil {
		panic(fmt.Sprintf("evict: training failed: %v", err))
	}
	c.learned.SetModel(model)
	c.winReqs = c.winReqs[:0]
	c.windows++
	c.cm.retrains.Inc()
}
