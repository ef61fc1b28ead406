package evict

import (
	"container/list"
	"math"
	"reflect"
	"testing"

	"lfo/internal/gen"
	"lfo/internal/obs"
	"lfo/internal/pq"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

func genTrace(t *testing.T, n int, seed int64) *trace.Trace {
	t.Helper()
	tr, err := gen.Generate(gen.CDNMix(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewEvictorUnknown(t *testing.T) {
	if _, err := NewEvictor("clock", sim.NewStore[Meta](1024), Options{}); err == nil {
		t.Fatal("unknown evictor kind accepted")
	}
	if _, err := New(Config{CacheSize: 1024, Eviction: "clock"}); err == nil {
		t.Fatal("unknown Config.Eviction accepted")
	}
	if _, err := New(Config{CacheSize: 0}); err == nil {
		t.Fatal("zero CacheSize accepted")
	}
}

// TestWindowSizeRange: a negative WindowSize is an error, not silently the
// default; 0 keeps meaning 50000.
func TestWindowSizeRange(t *testing.T) {
	if _, err := New(Config{CacheSize: 1024, WindowSize: -1}); err == nil {
		t.Error("WindowSize -1: no error")
	}
	c, err := New(Config{CacheSize: 1024})
	if err != nil {
		t.Fatalf("WindowSize 0: %v", err)
	}
	if c.cfg.WindowSize != 50000 {
		t.Errorf("WindowSize 0 resolved to %d, want 50000", c.cfg.WindowSize)
	}
}

// standaloneLRU is the former standalone LRU policy, kept as an oracle:
// a recency list beside a sim.Store, evicting from the tail.
type standaloneLRU struct {
	store *sim.Store[*list.Element]
	lru   *list.List // front = most recent; values are trace.ObjectID
}

func newStandaloneLRU(capacity int64) *standaloneLRU {
	return &standaloneLRU{store: sim.NewStore[*list.Element](capacity), lru: list.New()}
}

func (p *standaloneLRU) Request(r trace.Request) bool {
	if e := p.store.Get(r.ID); e != nil {
		p.lru.MoveToFront(e.Payload)
		return true
	}
	if r.Size > p.store.Capacity() {
		return false
	}
	for !p.store.Fits(r.Size) {
		p.store.Remove(p.lru.Remove(p.lru.Back()).(trace.ObjectID))
	}
	p.store.Add(r.ID, r.Size).Payload = p.lru.PushFront(r.ID)
	return false
}

// standaloneGDSF is the former standalone GDSF policy, kept as an oracle:
// priority L + F*C/S in a pq, aging L to each evicted priority.
type standaloneGDSF struct {
	store *sim.Store[standaloneGDSFMeta]
	pq    *pq.Queue
	age   float64
}

type standaloneGDSFMeta struct {
	freq int64
	cost float64
}

func newStandaloneGDSF(capacity int64) *standaloneGDSF {
	return &standaloneGDSF{store: sim.NewStore[standaloneGDSFMeta](capacity), pq: pq.New()}
}

func (p *standaloneGDSF) priority(m standaloneGDSFMeta, size int64) float64 {
	return p.age + float64(m.freq)*m.cost/float64(size)
}

func (p *standaloneGDSF) Request(r trace.Request) bool {
	if e := p.store.Get(r.ID); e != nil {
		e.Payload.freq++
		e.Payload.cost = r.Cost
		p.pq.Update(r.ID, p.priority(e.Payload, e.Size))
		return true
	}
	if r.Size > p.store.Capacity() {
		return false
	}
	for !p.store.Fits(r.Size) {
		id, key := p.pq.PopMin()
		p.age = key
		p.store.Remove(id)
	}
	e := p.store.Add(r.ID, r.Size)
	e.Payload = standaloneGDSFMeta{freq: 1, cost: r.Cost}
	p.pq.Push(r.ID, p.priority(e.Payload, r.Size))
	return false
}

// TestCacheLRUMatchesPolicyLRU pins the combined cache's plumbing against
// the standalone LRU oracle: with admit-all admission and the lru
// evictor, every decision must agree byte-for-byte.
func TestCacheLRUMatchesPolicyLRU(t *testing.T) {
	tr := genTrace(t, 20000, 7)
	const size = 4 << 20

	c, err := New(Config{CacheSize: size, Eviction: "lru"})
	if err != nil {
		t.Fatal(err)
	}
	ref := newStandaloneLRU(size)
	for i, r := range tr.Requests {
		if got, want := c.Request(r), ref.Request(r); got != want {
			t.Fatalf("request %d (id %d): cache hit=%v, standalone LRU hit=%v", i, r.ID, got, want)
		}
	}
}

// TestCacheGDSFMatchesPolicyGDSF pins the gdsf evictor against the
// standalone GDSF oracle: same priorities, same aging, same
// deterministic pq tie-breaks.
func TestCacheGDSFMatchesPolicyGDSF(t *testing.T) {
	tr := genTrace(t, 20000, 11)
	const size = 4 << 20

	c, err := New(Config{CacheSize: size, Eviction: "gdsf"})
	if err != nil {
		t.Fatal(err)
	}
	ref := newStandaloneGDSF(size)
	for i, r := range tr.Requests {
		if got, want := c.Request(r), ref.Request(r); got != want {
			t.Fatalf("request %d (id %d): cache hit=%v, standalone GDSF hit=%v", i, r.ID, got, want)
		}
	}
}

// TestLearnedBootstrapIsExactLRUWhenSmall: before any model deploys the
// learned evictor falls back to oldest-LastAccess, and with the resident
// set at or under K the candidate scan is exhaustive — so on a trace
// whose resident count never exceeds K the bootstrap must equal LRU
// exactly.
func TestLearnedBootstrapIsExactLRUWhenSmall(t *testing.T) {
	// 1 KiB objects in a 16 KiB cache: at most 16 residents, K = 64.
	const size = 16 << 10
	learned, err := New(Config{CacheSize: size, Eviction: "learned", WindowSize: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	lru, err := New(Config{CacheSize: size, Eviction: "lru"})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic mixed stream with distinct times.
	for i := 0; i < 5000; i++ {
		id := trace.ObjectID((i * 7919) % 64)
		r := trace.Request{Time: int64(i), ID: id, Size: 1 << 10, Cost: 1}
		if got, want := learned.Request(r), lru.Request(r); got != want {
			t.Fatalf("request %d (id %d): learned bootstrap hit=%v, lru hit=%v", i, id, got, want)
		}
	}
	if learned.Windows() != 0 {
		t.Fatalf("bootstrap cache trained %d windows, want 0", learned.Windows())
	}
}

func TestBuildDataset(t *testing.T) {
	reqs := []trace.Request{
		{Time: 10, ID: 1, Size: 100, Cost: 2},
		{Time: 20, ID: 2, Size: 200, Cost: 3},
		{Time: 35, ID: 1, Size: 100, Cost: 2},
		{Time: 60, ID: 1, Size: 100, Cost: 5},
	}
	admit := []bool{false, true, true, false}
	ds := BuildDataset(reqs, admit)
	if ds.Len() != 4 || ds.Dim() != Dim {
		t.Fatalf("dataset %dx%d, want 4x%d", ds.Len(), ds.Dim(), Dim)
	}
	row := func(i int) []float64 { return ds.Row(i) }

	// Row 0: first sight of object 1 — no history.
	if r := row(0); r[FeatSize] != 100 || r[FeatCost] != 2 || r[FeatFreq] != 1 ||
		!math.IsNaN(r[FeatAge]) || !math.IsNaN(r[FeatIdle]) {
		t.Errorf("row 0 = %v", r)
	}
	// Row 2: object 1 again — age 25, idle 25, freq 2.
	if r := row(2); r[FeatFreq] != 2 || r[FeatAge] != 25 || r[FeatIdle] != 25 {
		t.Errorf("row 2 = %v", r)
	}
	// Row 3: object 1 — age 50, idle 25, freq 3, current cost 5.
	if r := row(3); r[FeatFreq] != 3 || r[FeatAge] != 50 || r[FeatIdle] != 25 || r[FeatCost] != 5 {
		t.Errorf("row 3 = %v", r)
	}
	for i, want := range []float64{0, 1, 1, 0} {
		if ds.Label(i) != want {
			t.Errorf("label %d = %v, want %v", i, ds.Label(i), want)
		}
	}
}

func TestBuildDatasetShortLabelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	BuildDataset(make([]trace.Request, 3), make([]bool, 2))
}

// TestCacheLearnedRetrainsAndStaysDeterministic drives the learned cache
// across several training windows and pins (a) the ranker actually
// deploys, (b) reruns are byte-identical, and (c) the retrain worker
// count does not leak into results.
func TestCacheLearnedRetrainsAndStaysDeterministic(t *testing.T) {
	tr := genTrace(t, 24000, 3)

	run := func(workers int) (*sim.Metrics, int) {
		c, err := New(Config{
			CacheSize:  2 << 20,
			Eviction:   "learned",
			WindowSize: 6000,
			Workers:    workers,
			Seed:       42,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := sim.Run(tr, c, sim.Options{})
		return m, c.Windows()
	}

	m1, w1 := run(1)
	if w1 < 3 {
		t.Fatalf("completed %d windows, want >= 3", w1)
	}
	if m1.Hits == 0 || m1.Hits == m1.Requests {
		t.Fatalf("degenerate hit count %d/%d", m1.Hits, m1.Requests)
	}
	m2, _ := run(1)
	if !reflect.DeepEqual(m1, m2) {
		t.Errorf("rerun diverged: %+v vs %+v", m1, m2)
	}
	m4, _ := run(4)
	if !reflect.DeepEqual(m1, m4) {
		t.Errorf("workers=4 diverged from workers=1: %+v vs %+v", m1, m4)
	}
}

// TestSeedChangesSampledVictims sanity-checks that the sampler seed is
// wired through: with more residents than K (so the sampled path, not
// the exhaustive scan, runs) different seeds must pick different victim
// sequences, while equal seeds must agree exactly.
func TestSeedChangesSampledVictims(t *testing.T) {
	victims := func(seed int64) []trace.ObjectID {
		store := sim.NewStore[Meta](1 << 20)
		l := newLearned(store, Options{Seed: seed})
		for i := 0; i < 1000; i++ {
			e := store.Add(trace.ObjectID(i), 256)
			l.OnAdmit(e, trace.Request{Time: int64(i), ID: trace.ObjectID(i), Size: 256, Cost: 1})
		}
		out := make([]trace.ObjectID, 20)
		for i := range out {
			// Victim does not mutate the store, but each call advances the
			// sampler, so the sequence exercises 20 distinct candidate sets.
			out[i] = l.Victim(int64(1000 + i))
		}
		return out
	}
	a, b := victims(1), victims(1)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	if c := victims(999); reflect.DeepEqual(a, c) {
		t.Errorf("seeds 1 and 999 picked identical victim sequences: %v", a)
	}
}

// secondHit admits an object from its second request on, with likelihood
// 1: policy.SecondHitCensor without the generations, which this package's
// tests cannot import (policy builds its baselines from evict).
type secondHit map[trace.ObjectID]bool

func (s secondHit) Admit(r trace.Request, free int64) (bool, float64) {
	if s[r.ID] {
		return true, 1
	}
	return false, 0
}

func (s secondHit) Observe(r trace.Request) { s[r.ID] = true }

// namedSecondHit is a secondHit that labels itself.
type namedSecondHit struct{ secondHit }

func (namedSecondHit) Name() string { return "second-hit" }

// TestCacheNameFromAdmitter: the cache's name leads with the admitter's
// own Name, "admit-all" for no admitter and "custom" for one without Name.
func TestCacheNameFromAdmitter(t *testing.T) {
	for _, tc := range []struct {
		adm  sim.Admitter
		want string
	}{
		{nil, "admit-all+lru"},
		{secondHit{}, "custom+lru"},
		{namedSecondHit{secondHit{}}, "second-hit+lru"},
	} {
		c, err := New(Config{CacheSize: 1 << 20, Eviction: "lru", Admitter: tc.adm})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Name(); got != tc.want {
			t.Errorf("Name = %q, want %q", got, tc.want)
		}
	}
}

// TestCacheOversizedAndAdmitters covers the oversized-object guard and
// the Admitter hook for every evictor kind.
func TestCacheOversizedAndAdmitters(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			const size = 1 << 20
			c, err := New(Config{
				CacheSize:  size,
				Eviction:   kind,
				Admitter:   secondHit{},
				WindowSize: 1 << 30,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := c.Name(), "custom+"+kind; got != want {
				t.Errorf("Name = %q, want %q", got, want)
			}
			// Oversized request against the empty cache: plain miss.
			if c.Request(trace.Request{ID: 999, Size: size + 1, Cost: 1}) {
				t.Error("oversized request hit")
			}
			// Second-hit admission: first request observes, second admits,
			// third hits.
			r := trace.Request{Time: 1, ID: 1, Size: 1024, Cost: 1}
			if c.Request(r) {
				t.Error("unseen object hit")
			}
			r.Time = 2
			c.Request(r)
			r.Time = 3
			if !c.Request(r) {
				t.Error("admitted object missed")
			}
			// Fill past capacity to force evictions; accounting must hold.
			for i := 0; i < 4096; i++ {
				c.Request(trace.Request{Time: int64(10 + i), ID: trace.ObjectID(100 + i%2048), Size: 4 << 10, Cost: 1})
			}
			if used := sizeOf(c); used > size {
				t.Errorf("store overfull: %d > %d", used, size)
			}
		})
	}
}

func sizeOf(c *Cache) int64 { return c.res.Store.Used() }

// TestEvictorInvariants holds every kind NewEvictor builds, under admit-all
// and second-hit admission, to the cache invariants after every request of
// a seeded CDN and web trace: the residents fit the capacity, Used is the
// sum of the sizes the store's dense index reaches, a hit is returned
// exactly when the object was resident before the request, and a queue or
// list or wheel evictor tracks exactly the residents. The learned cells retrain
// every 2500 requests, so both bootstrap and ranked picks are held, and
// the caches hold more than K residents, so the picks sample; they also hold
// the slab that carries lapsed scores: no two residents share a slot, no
// resident holds a freed one, and the slots in use are exactly those the
// residents hold.
func TestEvictorInvariants(t *testing.T) {
	for _, mix := range []struct {
		name string
		cfg  gen.Config
		size int64
	}{
		{"cdn", gen.CDNMix(10000, 5), 256 << 20},
		{"web", gen.WebMix(10000, 5), 8 << 20},
	} {
		tr, err := gen.Generate(mix.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range Kinds() {
			for _, admitter := range []string{"admit-all", "second-hit"} {
				t.Run(mix.name+"/"+kind+"/"+admitter, func(t *testing.T) {
					cfg := Config{CacheSize: mix.size, Eviction: kind, Seed: 3, WindowSize: 2500, Workers: 1}
					if admitter == "second-hit" {
						cfg.Admitter = secondHit{}
					}
					c, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkInvariants(t, c, tr)
				})
			}
		}
	}
}

// checkInvariants replays tr through c and checks TestEvictorInvariants'
// invariants after every request; it fails if nothing was ever evicted.
func checkInvariants(t *testing.T, c *Cache, tr *trace.Trace) {
	t.Helper()
	store := c.res.Store
	tracked, isTracked := c.res.Evictor.(interface{ Len() int })
	sampled := map[string]bool{"learned": true, "rnd": true, "hyperbolic": true, "lhd": true}
	if kind := c.res.Evictor.Name(); isTracked == sampled[kind] {
		t.Fatalf("the %s evictor has a Len: %v", kind, isTracked)
	}
	evictions := 0
	for i, r := range tr.Requests {
		resident, before := store.Has(r.ID), store.Len()
		if hit := c.Request(r); hit != resident {
			t.Fatalf("request %d (id %d): hit=%v but resident before the call=%v", i, r.ID, hit, resident)
		}
		if store.Used() > store.Capacity() {
			t.Fatalf("request %d: %d bytes resident in a cache of %d", i, store.Used(), store.Capacity())
		}
		var sum int64
		for j := 0; j < store.Len(); j++ {
			sum += store.At(j).Size
		}
		if sum != store.Used() {
			t.Fatalf("request %d: the dense index reaches %d bytes, Used is %d", i, sum, store.Used())
		}
		if isTracked && tracked.Len() != store.Len() {
			t.Fatalf("request %d: the evictor tracks %d objects, the store holds %d", i, tracked.Len(), store.Len())
		}
		if c.learned != nil {
			checkSlots(t, i, c.learned)
		}
		if !resident && store.Has(r.ID) {
			before++
		}
		evictions += before - store.Len()
	}
	if evictions == 0 {
		t.Fatal("the trace never filled the cache")
	}
	if c.learned != nil && (c.Windows() == 0 || c.learned.slots == 0) {
		t.Fatalf("the learned cache retrained %d times and handed out %d slab slots", c.Windows(), c.learned.slots)
	}
}

// checkSlots fails unless the learned evictor's slab slots are held by one
// resident each, and the slots not given back are exactly those.
func checkSlots(t *testing.T, i int, l *Learned) {
	t.Helper()
	held := make([]bool, l.slots+1)
	holders := 0
	for j := 0; j < l.store.Len(); j++ {
		e := l.store.At(j)
		s := e.Payload.slot
		if s == 0 {
			continue
		}
		if s > l.slots || held[s] {
			t.Fatalf("request %d: object %d holds slot %d of %d, held already: %v", i, e.ID, s, l.slots, s <= l.slots && held[s])
		}
		held[s] = true
		holders++
	}
	for _, s := range l.free {
		if held[s] {
			t.Fatalf("request %d: slot %d is both free and held", i, s)
		}
	}
	if live := int(l.slots) - len(l.free); live != holders || len(l.slab) != l.words*int(l.slots) {
		t.Fatalf("request %d: %d slots in use, %d residents hold one; slab of %d words for %d slots of %d",
			i, live, holders, len(l.slab), l.slots, l.words)
	}
}

// TestEvictObsMetrics pins the observability wiring: victim counters,
// size tiers, candidate counters, and the latency histogram.
func TestEvictObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Config{CacheSize: 256 << 10, Eviction: "learned", WindowSize: 1 << 30, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// 8 KiB objects: 32 fit; drive 256 distinct so evictions happen.
	for i := 0; i < 256; i++ {
		c.Request(trace.Request{Time: int64(i), ID: trace.ObjectID(i), Size: 8 << 10, Cost: 1})
	}
	victims := reg.Counter("evict_victims_total").Value()
	if victims == 0 {
		t.Fatal("no victims recorded")
	}
	if small := reg.Counter("evict_victims_small_total").Value(); small != victims {
		t.Errorf("small-tier victims %d != total %d (all objects are 8KiB)", small, victims)
	}
	if sets := reg.Counter("evict_candidate_sets_total").Value(); sets != victims {
		t.Errorf("candidate sets %d != victims %d", sets, victims)
	}
	if cands := reg.Counter("evict_candidates_total").Value(); cands < victims {
		t.Errorf("candidates %d < victims %d", cands, victims)
	}
	if boots := reg.Counter("evict_bootstrap_picks_total").Value(); boots != victims {
		t.Errorf("bootstrap picks %d != victims %d (no model ever deployed)", boots, victims)
	}
	if reg.Counter("evict_cache_requests_total").Value() != 256 {
		t.Error("request counter unwired")
	}
	// Bootstrap picks rank by last access: nothing goes through a ranker
	// and nothing is read from the score cache.
	scored, cacheHits := reg.Counter("evict_scored_rows_total"), reg.Counter("evict_score_cache_hits_total")
	if scored.Value() != 0 || cacheHits.Value() != 0 {
		t.Errorf("bootstrap picks scored %d rows and hit the score cache %d times, want 0 and 0", scored.Value(), cacheHits.Value())
	}
	// With a ranker deployed every sampled candidate is scored in full,
	// carried forward from its lapsed score or answered from the cache, and
	// the first and the last happen: the 32 residents are all candidates of
	// every pick, one of them new each time (this ranker's horizons outlast
	// the replay; core's TestLearnedScoreCacheShare sees scores carried).
	bootCands := reg.Counter("evict_candidates_total").Value()
	carried := reg.Counter("evict_carried_rows_total")
	c.learned.SetModel(trainedRanker(t))
	for i := 256; i < 512; i++ {
		c.Request(trace.Request{Time: int64(i), ID: trace.ObjectID(i), Size: 8 << 10, Cost: 1})
	}
	ranked := reg.Counter("evict_candidates_total").Value() - bootCands
	if ranked == 0 || scored.Value() == 0 || cacheHits.Value() == 0 || scored.Value()+carried.Value()+cacheHits.Value() != ranked {
		t.Errorf("model-ranked picks saw %d candidates: %d scored + %d carried + %d from the score cache",
			ranked, scored.Value(), carried.Value(), cacheHits.Value())
	}
	if boots := reg.Counter("evict_bootstrap_picks_total").Value(); boots != victims {
		t.Errorf("bootstrap picks went from %d to %d under a deployed ranker", victims, boots)
	}
}

// TestVictimTiers pins the size-tier classification boundaries.
func TestVictimTiers(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := NewResidents(1, "lru", Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	res.countVictim(tierSmallMax - 1)
	res.countVictim(tierSmallMax)
	res.countVictim(tierMediumMax - 1)
	res.countVictim(tierMediumMax)
	res.countVictim(1 << 30)
	if got := reg.Counter("evict_victims_small_total").Value(); got != 1 {
		t.Errorf("small = %d, want 1", got)
	}
	if got := reg.Counter("evict_victims_medium_total").Value(); got != 2 {
		t.Errorf("medium = %d, want 2", got)
	}
	if got := reg.Counter("evict_victims_large_total").Value(); got != 2 {
		t.Errorf("large = %d, want 2", got)
	}
	if got := reg.Counter("evict_victims_total").Value(); got != 5 {
		t.Errorf("total = %d, want 5", got)
	}
}

// TestLearnedSamplerDeterminism: the SplitMix64 stream must be a pure
// function of the seed.
func TestLearnedSamplerDeterminism(t *testing.T) {
	a := newLearned(sim.NewStore[Meta](1024), Options{Seed: 9})
	b := newLearned(sim.NewStore[Meta](1024), Options{Seed: 9})
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := newLearned(sim.NewStore[Meta](1024), Options{Seed: 10})
	same := 0
	for i := 0; i < 100; i++ {
		if a.next() == c.next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

// likelihoodBySize is an admitter that admits everything and scores an
// object by its size, so a test can read the ranked evictor's order.
type likelihoodBySize struct{}

func (likelihoodBySize) Admit(r trace.Request, free int64) (bool, float64) {
	return true, float64(r.Size) / 1024
}
func (likelihoodBySize) Observe(trace.Request) {}

// TestRankedEvictsLowestScore: the ranked evictor's key is the score its
// cache hands over, whoever the cache is — under Cache, the admitter's
// likelihood — and equal scores leave in order of their last touch.
func TestRankedEvictsLowestScore(t *testing.T) {
	c, err := New(Config{CacheSize: 600, Eviction: "rank", Admitter: likelihoodBySize{}})
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range []int64{300, 100, 100, 100} { // ids 0..3
		c.Request(trace.Request{Time: int64(i), ID: trace.ObjectID(i), Size: size, Cost: 1})
	}
	c.Request(trace.Request{Time: 4, ID: 1, Size: 100, Cost: 1}) // hit: 1 is now the youngest of the three ties
	c.Request(trace.Request{Time: 5, ID: 9, Size: 200, Cost: 1}) // needs 200 bytes: out go 2 and 3
	for id, want := range map[trace.ObjectID]bool{0: true, 1: true, 2: false, 3: false, 9: true} {
		if got := c.res.Store.Has(id); got != want {
			t.Errorf("object %d resident = %v, want %v", id, got, want)
		}
	}
	if got := c.res.Evictor.(*Ranked).Len(); got != 3 {
		t.Errorf("ranked queue holds %d objects, want 3", got)
	}
}
