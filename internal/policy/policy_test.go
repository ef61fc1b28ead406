package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"lfo/internal/evict"
	"lfo/internal/gen"
	"lfo/internal/policy/ogd"
	"lfo/internal/sim"
	"lfo/internal/tiered"
	"lfo/internal/trace"
)

// mkTrace builds a trace from (id, size) pairs with unit costs.
func mkTrace(reqs ...[2]int64) *trace.Trace {
	t := &trace.Trace{}
	for i, r := range reqs {
		t.Requests = append(t.Requests, trace.Request{
			Time: int64(i), ID: trace.ObjectID(r[0]), Size: r[1], Cost: float64(r[1]),
		})
	}
	return t
}

// mustNew builds a registered policy, failing the test on an unknown name.
func mustNew(t testing.TB, name string, capacity, seed int64) sim.Policy {
	t.Helper()
	p, err := New(name, capacity, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRegistryConstructsAll(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name, 1<<20, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() == "" {
			t.Errorf("%q has empty Name()", name)
		}
		// Smoke: run a few requests without panicking.
		for i := 0; i < 100; i++ {
			p.Request(trace.Request{Time: int64(i), ID: trace.ObjectID(i % 10), Size: 100, Cost: 100})
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := New("nope", 100, 0); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Capacity 3 unit objects; access 1,2,3 then 1; adding 4 evicts 2.
	p := mustNew(t, "lru", 3, 0)
	tr := mkTrace([2]int64{1, 1}, [2]int64{2, 1}, [2]int64{3, 1}, [2]int64{1, 1}, [2]int64{4, 1}, [2]int64{2, 1}, [2]int64{1, 1})
	var hits []bool
	for _, r := range tr.Requests {
		hits = append(hits, p.Request(r))
	}
	want := []bool{false, false, false, true, false, false, true}
	for i := range want {
		if hits[i] != want[i] {
			t.Errorf("request %d: hit = %v, want %v", i, hits[i], want[i])
		}
	}
}

func TestFIFOEvictionOrder(t *testing.T) {
	// Capacity 2; 1,2 inserted; touching 1 does NOT protect it in FIFO.
	p := mustNew(t, "fifo", 2, 0)
	seq := mkTrace([2]int64{1, 1}, [2]int64{2, 1}, [2]int64{1, 1}, [2]int64{3, 1}, [2]int64{1, 1})
	var hits []bool
	for _, r := range seq.Requests {
		hits = append(hits, p.Request(r))
	}
	// 3 evicts 1 (oldest), so the last request to 1 misses.
	want := []bool{false, false, true, false, false}
	for i := range want {
		if hits[i] != want[i] {
			t.Errorf("request %d: hit = %v, want %v", i, hits[i], want[i])
		}
	}
}

func TestLFUKeepsFrequent(t *testing.T) {
	p := mustNew(t, "lfu", 2, 0)
	// 1 requested 3×, 2 once, then 3 arrives: 2 must be evicted.
	for _, r := range mkTrace([2]int64{1, 1}, [2]int64{1, 1}, [2]int64{1, 1}, [2]int64{2, 1}, [2]int64{3, 1}).Requests {
		p.Request(r)
	}
	if !p.Request(trace.Request{Time: 10, ID: 1, Size: 1, Cost: 1}) {
		t.Error("frequent object 1 was evicted")
	}
	if p.Request(trace.Request{Time: 11, ID: 2, Size: 1, Cost: 1}) {
		t.Error("infrequent object 2 survived")
	}
}

func TestLRUKPrefersEvictingSingleReference(t *testing.T) {
	// LRU-2: objects with only one reference have infinite backward
	// K-distance and are evicted before twice-referenced objects.
	p := NewLRUK(2, 2)
	reqs := mkTrace(
		[2]int64{1, 1}, [2]int64{1, 1}, // object 1: two refs
		[2]int64{2, 1}, // object 2: one ref (victim)
	)
	for _, r := range reqs.Requests {
		p.Request(r)
	}
	p.Request(trace.Request{Time: 5, ID: 3, Size: 1, Cost: 1}) // evicts 2
	if !p.Request(trace.Request{Time: 6, ID: 1, Size: 1, Cost: 1}) {
		t.Error("object 1 (two refs) was evicted before object 2 (one ref)")
	}
	if p.Request(trace.Request{Time: 7, ID: 2, Size: 1, Cost: 1}) {
		t.Error("object 2 (one ref) survived")
	}
}

func TestGDSFPrefersSmallUnderUnitCost(t *testing.T) {
	// With equal frequency and cost, GDSF priority = L + C/S favors
	// keeping small objects.
	p := mustNew(t, "gdsf", 100, 0)
	p.Request(trace.Request{Time: 0, ID: 1, Size: 60, Cost: 1})
	p.Request(trace.Request{Time: 1, ID: 2, Size: 40, Cost: 1})
	// Cache full (100/100). Object 3 (40B) must evict the large 1 first.
	p.Request(trace.Request{Time: 2, ID: 3, Size: 40, Cost: 1})
	// Probe 2 first (a hit does not disturb residency), then 1.
	if !p.Request(trace.Request{Time: 3, ID: 2, Size: 40, Cost: 1}) {
		t.Error("small object 2 was evicted")
	}
	if p.Request(trace.Request{Time: 4, ID: 1, Size: 60, Cost: 1}) {
		t.Error("large object 1 survived over small object 2")
	}
}

func TestLFUDAAgingAllowsTurnover(t *testing.T) {
	// A formerly hot object must eventually drain after the mix shifts.
	p := mustNew(t, "lfuda", 2, 0)
	for i := 0; i < 100; i++ {
		p.Request(trace.Request{Time: int64(i), ID: 1, Size: 1, Cost: 1})
	}
	// New phase: objects 2 and 3 alternate. With aging, they displace 1's
	// huge frequency after a bounded number of misses.
	turnedOver := false
	for i := 0; i < 50 && !turnedOver; i++ {
		p.Request(trace.Request{Time: int64(100 + 2*i), ID: 2, Size: 1, Cost: 1})
		hit3 := p.Request(trace.Request{Time: int64(101 + 2*i), ID: 3, Size: 1, Cost: 1})
		hit2 := p.Request(trace.Request{Time: int64(102 + 2*i), ID: 2, Size: 1, Cost: 1})
		if hit2 || hit3 {
			turnedOver = true
		}
	}
	if !turnedOver {
		t.Error("LFUDA never aged out the stale hot object")
	}
	// Plain LFU, in contrast, never recovers in this scenario.
	q := mustNew(t, "lfu", 2, 0)
	for i := 0; i < 100; i++ {
		q.Request(trace.Request{Time: int64(i), ID: 1, Size: 1, Cost: 1})
	}
	lfuHit := false
	for i := 0; i < 50; i++ {
		if q.Request(trace.Request{Time: int64(100 + 2*i), ID: 2, Size: 1, Cost: 1}) {
			lfuHit = true
		}
		q.Request(trace.Request{Time: int64(101 + 2*i), ID: 3, Size: 1, Cost: 1})
	}
	if lfuHit {
		t.Error("plain LFU unexpectedly aged out the hot object (test premise broken)")
	}
}

func TestS4LRUPromotion(t *testing.T) {
	// Hits promote across segments; a once-hit object outlives streams of
	// one-timers.
	p := NewS4LRU(8) // four 2-byte tiers
	p.Request(trace.Request{Time: 0, ID: 1, Size: 1, Cost: 1})
	p.Request(trace.Request{Time: 1, ID: 1, Size: 1, Cost: 1}) // promote one tier up
	// Stream 20 distinct one-timers through: they churn the bottom tier only.
	for i := 0; i < 20; i++ {
		p.Request(trace.Request{Time: int64(2 + i), ID: trace.ObjectID(100 + i), Size: 1, Cost: 1})
	}
	if got := s4Levels(t, p); fmt.Sprint(got) != "[0 0 1 2]" {
		t.Errorf("tier bytes = %v, want [0 0 1 2]", got)
	}
	if !p.Request(trace.Request{Time: 50, ID: 1, Size: 1, Cost: 1}) {
		t.Error("promoted object was churned out of S4LRU")
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	tr, err := gen.Generate(gen.WebMix(5000, 3))
	if err != nil {
		t.Fatal(err)
	}
	a := sim.Run(tr, mustNew(t, "rnd", 1<<20, 7), sim.Options{})
	b := sim.Run(tr, mustNew(t, "rnd", 1<<20, 7), sim.Options{})
	if a.Hits != b.Hits {
		t.Error("same seed, different results")
	}
}

// TestAllPoliciesRespectCapacity runs every policy over a mixed trace and
// checks (via a shadow accounting wrapper) they never exceed capacity.
func TestAllPoliciesRespectCapacity(t *testing.T) {
	tr, err := gen.Generate(gen.CDNMix(8000, 11))
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 8 << 20
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := New(name, capacity, 1)
			if err != nil {
				t.Fatal(err)
			}
			m := sim.Run(tr, p, sim.Options{})
			if m.Requests != tr.Len() {
				t.Errorf("metrics requests %d != trace %d", m.Requests, tr.Len())
			}
			// Feasibility: replay hits; every hit must be to an object
			// requested before (no phantom hits).
			seen := map[trace.ObjectID]bool{}
			q, _ := New(name, capacity, 1)
			for _, r := range tr.Requests {
				if q.Request(r) && !seen[r.ID] {
					t.Fatalf("hit on never-before-seen object %d", r.ID)
				}
				seen[r.ID] = true
			}
		})
	}
}

// TestHitRatiosSane: on a skewed web trace with a reasonably large cache,
// every policy must beat 5% OHR, and smarter policies must beat LRU in
// BHR terms... at least GDSF should beat RND.
func TestHitRatiosSane(t *testing.T) {
	tr, err := gen.Generate(gen.WebMix(30000, 5))
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 4 << 20
	results := map[string]*sim.Metrics{}
	for _, name := range Names() {
		p, _ := New(name, capacity, 1)
		results[name] = sim.Run(tr, p, sim.Options{Warmup: 5000})
	}
	for name, m := range results {
		if m.OHR() < 0.02 {
			t.Errorf("%s OHR = %.4f, implausibly low", name, m.OHR())
		}
		if m.OHR() > 0.999 {
			t.Errorf("%s OHR = %.4f, implausibly high", name, m.OHR())
		}
	}
	if results["gdsf"].OHR() <= results["rnd"].OHR() {
		t.Errorf("GDSF OHR %.4f <= RND %.4f", results["gdsf"].OHR(), results["rnd"].OHR())
	}
}

// TestOversizedObjectsBypassed: objects larger than the cache can never
// hit nor corrupt accounting.
func TestOversizedObjectsBypassed(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name, 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if p.Request(trace.Request{Time: int64(i), ID: 1, Size: 5000, Cost: 5000}) {
				t.Errorf("%s: oversized object hit", name)
			}
		}
	}
}

// TestHeuristicsMatchReference replays the registry's RND, FIFO, LRU, LFU,
// LFUDA, GDSF, LRU-K, GD-Wheel, RLC, TinyLFU, AdaptSize, Hyperbolic, LHD
// and S4LRU against the implementations they replaced (reference_test.go)
// and fails at the first request whose hit differs: CDN and web mixes × BHR and OHR costs × 1, 16 and 256 MiB ×
// seeds 1 and 42, each trace long enough that AdaptSize retunes and, in
// the smaller caches, TinyLFU's sketch resets.
func TestHeuristicsMatchReference(t *testing.T) {
	refs := map[string]Constructor{
		"rnd":        func(c, s int64) sim.Policy { return newReferenceRandom(c, s) },
		"fifo":       func(c, s int64) sim.Policy { return newReferenceFIFO(c) },
		"lru":        func(c, s int64) sim.Policy { return newReferenceLRU(c) },
		"lfu":        func(c, s int64) sim.Policy { return newReferenceLFU(c) },
		"lfuda":      func(c, s int64) sim.Policy { return newReferenceLFUDA(c) },
		"gdsf":       func(c, s int64) sim.Policy { return newReferenceGDSF(c) },
		"lruk":       func(c, s int64) sim.Policy { return newReferenceLRUK(c, 2) },
		"gdwheel":    func(c, s int64) sim.Policy { return newReferenceGDWheel(c) },
		"rlc":        func(c, s int64) sim.Policy { return newReferenceRLC(c, s) },
		"tinylfu":    func(c, s int64) sim.Policy { return newReferenceTinyLFU(c) },
		"adaptsize":  func(c, s int64) sim.Policy { return newReferenceAdaptSize(c, s) },
		"hyperbolic": func(c, s int64) sim.Policy { return newReferenceHyperbolic(c, s) },
		"lhd":        func(c, s int64) sim.Policy { return newReferenceLHD(c, s) },
		"s4lru":      func(c, s int64) sim.Policy { return newReferenceS4LRU(c) },
	}
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
					for _, name := range []string{"rnd", "fifo", "lru", "lfu", "lfuda", "gdsf", "lruk", "gdwheel", "rlc", "tinylfu", "adaptsize", "hyperbolic", "lhd", "s4lru"} {
						t.Run(fmt.Sprintf("%s/seed%d/%s/%dMiB/%s", mix.name, seed, obj, size>>20, name), func(t *testing.T) {
							got, want := mustNew(t, name, size, seed), refs[name](size, seed)
							if got.Name() != want.Name() {
								t.Errorf("Name = %q, reference %q", got.Name(), want.Name())
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
}

// TestBaselineInvariants replays every baseline built on one
// evict.Residents — all of the table but S4LRU, whose tiers
// TestTieredInvariants holds — over a CDN and a web mix under
// invariants.request's checks after every request. It fails if nothing
// was ever evicted.
func TestBaselineInvariants(t *testing.T) {
	for _, mix := range []struct {
		name string
		cfg  gen.Config
		size int64
	}{
		{"cdn", gen.CDNMix(20000, 5), 64 << 20},
		{"web", gen.WebMix(20000, 5), 4 << 20},
	} {
		tr, err := gen.Generate(mix.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range Names() {
			if name == "s4lru" {
				continue
			}
			t.Run(mix.name+"/"+name, func(t *testing.T) {
				inv := newInvariants(t, mustNew(t, name, mix.size, 1), mix.size)
				for i, r := range tr.Requests {
					inv.request(t, i, r)
				}
				if inv.evictions == 0 {
					t.Fatal("the trace never filled the cache")
				}
			})
		}
	}
}

// invariants holds a registered policy to what every cache of the table
// must keep after each request: a hit exactly when the object was
// resident before the request, the resident bytes within the capacity,
// and an evictor keeping a structure of its own (queue, list, wheels)
// tracking exactly the residents. S4LRU has no single resident set, so it
// is held to the capacity alone: each of its equal tiers within its share.
type invariants struct {
	p        sim.Policy
	capacity int64
	store    *sim.Store[evict.Meta] // nil for S4LRU
	tracked  interface{ Len() int } // nil unless the evictor keeps one
	tiers    *tiered.TieredCache    // S4LRU only
	// evictions counts residents removed to make room.
	evictions int
}

func newInvariants(t testing.TB, p sim.Policy, capacity int64) *invariants {
	t.Helper()
	inv := &invariants{p: p, capacity: capacity}
	if n, ok := p.(named); ok {
		inv.tiers = n.Policy.(*tiered.TieredCache)
		return inv
	}
	res := residentsOf(t, p)
	inv.store = res.Store
	inv.tracked, _ = res.Evictor.(interface{ Len() int })
	return inv
}

// request serves request i and checks the invariants after it.
func (inv *invariants) request(t testing.TB, i int, r trace.Request) {
	t.Helper()
	if inv.tiers != nil {
		inv.p.Request(r)
		used := inv.tiers.Used()
		for tier, u := range used {
			if u > inv.capacity/int64(len(used)) {
				t.Fatalf("request %d: %d bytes resident in tier %d of %d, a cache of %d", i, u, tier, len(used), inv.capacity)
			}
		}
		return
	}
	store := inv.store
	resident, before := store.Has(r.ID), store.Len()
	if hit := inv.p.Request(r); hit != resident {
		t.Fatalf("request %d (id %d): hit=%v but resident before the call=%v", i, r.ID, hit, resident)
	}
	if store.Used() > inv.capacity || store.Capacity() != inv.capacity {
		t.Fatalf("request %d: %d bytes resident in a store of %d, cache of %d", i, store.Used(), store.Capacity(), inv.capacity)
	}
	if inv.tracked != nil && inv.tracked.Len() != store.Len() {
		t.Fatalf("request %d: the evictor tracks %d objects, the store holds %d", i, inv.tracked.Len(), store.Len())
	}
	if !resident && store.Has(r.ID) {
		before++
	}
	inv.evictions += before - store.Len()
}

// FuzzPolicyTrace replays fuzz-drawn valid traces through every
// registered policy under invariants.request's checks. The first two
// bytes give the capacity (1 B to 64 KiB); each following group of three
// is one request: an object of a 16-ID alphabet (low nibble) with a miss
// cost of 1–16 (high nibble), a time step of 0–255 and, the first time
// the object is seen, its size, between 1 B and twice the capacity. Sizes are fixed per object and times never go
// back, so every trace passes trace.Validate.
func FuzzPolicyTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := 1 + (int64(data[0])<<8 | int64(data[1]))
		tr := &trace.Trace{}
		sizes := make(map[trace.ObjectID]int64)
		var now int64
		for ops := data[2:]; len(ops) >= 3; ops = ops[3:] {
			id := trace.ObjectID(ops[0] % 16)
			now += int64(ops[1])
			size, ok := sizes[id]
			if !ok {
				size = 1 + (int64(ops[2])*2*capacity)/256
				sizes[id] = size
			}
			tr.Requests = append(tr.Requests, trace.Request{Time: now, ID: id, Size: size, Cost: float64(1 + ops[0]>>4)})
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("drew an invalid trace: %v", err)
		}
		for _, name := range Names() {
			inv := newInvariants(t, mustNew(t, name, capacity, 1), capacity)
			for i, r := range tr.Requests {
				inv.request(t, i, r)
			}
		}
	})
}

// residentsOf returns the one resident set a baseline is built on.
func residentsOf(t testing.TB, p sim.Policy) *evict.Residents {
	t.Helper()
	switch p := p.(type) {
	case *admitAll:
		return p.res
	case *LRUK:
		return p.res
	case *RLC:
		return p.res
	case *TinyLFU:
		return p.res
	case *AdaptSize:
		return p.res
	case *ogd.Cache:
		return p.Residents()
	}
	t.Fatalf("%s is not built on one evict.Residents", p.Name())
	return nil
}

// smallObjectTrace is n requests over 64 objects of 1–7 B, the low IDs
// requested most. With resize every request draws its object's size afresh,
// so hits arrive at sizes other than the stored one.
func smallObjectTrace(n int, seed int64, resize bool) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	sizes := map[trace.ObjectID]int64{}
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		id := trace.ObjectID(rng.Intn(1 + rng.Intn(64)))
		size, ok := sizes[id]
		if !ok || resize {
			size = 1 + rng.Int63n(7)
			sizes[id] = size
		}
		tr.Requests = append(tr.Requests, trace.Request{Time: int64(i), ID: id, Size: size, Cost: float64(size)})
	}
	return tr
}

// TestS4LRUMatchesReference replays S4LRU against the segmented LRU it
// replaced (referenceS4LRU) on 1–7 B objects at every capacity from 4 B to
// 64 B and at a few up to 2000 B, with fixed sizes and with sizes that
// change from request to request. The CDN and web mixes are in
// TestHeuristicsMatchReference.
func TestS4LRUMatchesReference(t *testing.T) {
	capacities := []int64{100, 333, 1000, 2000}
	for c := int64(4); c <= 64; c++ {
		capacities = append(capacities, c)
	}
	for _, resize := range []bool{false, true} {
		tr := smallObjectTrace(4000, 7, resize)
		for _, capacity := range capacities {
			got, want := mustNew(t, "s4lru", capacity, 1), newReferenceS4LRU(capacity)
			for i, r := range tr.Requests {
				if g, w := got.Request(r), want.Request(r); g != w {
					t.Fatalf("resize %v, %d B: request %d (id %d, size %d): hit=%v, reference hit=%v",
						resize, capacity, i, r.ID, r.Size, g, w)
				}
			}
		}
	}
}

// BenchmarkS4LRURequest replays a 50 000-request web mix through an 8 MiB
// S4LRU warmed by two passes, so every tier's store freelist and map
// buckets have reached their steady state. Pinned at 0 allocs/op in
// testdata/alloc_budgets.txt.
func BenchmarkS4LRURequest(b *testing.B) {
	tr, err := gen.Generate(gen.WebMix(50000, 1))
	if err != nil {
		b.Fatal(err)
	}
	p := NewS4LRU(8 << 20)
	for round := 0; round < 2; round++ {
		for _, r := range tr.Requests {
			p.Request(r)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Request(tr.Requests[i%len(tr.Requests)])
	}
}
