package tiered

import (
	"math"
	"testing"

	"lfo/internal/core"
	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/gen"
	"lfo/internal/opt"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

func threeTiers() []Tier {
	return []Tier{
		{Name: "ram", Capacity: 1 << 20, ReadCost: 1},
		{Name: "ssd", Capacity: 4 << 20, ReadCost: 10},
		{Name: "hdd", Capacity: 16 << 20, ReadCost: 100},
	}
}

func req(t int64, id trace.ObjectID, size int64) trace.Request {
	return trace.Request{Time: t, ID: id, Size: size, Cost: float64(size)}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil); err == nil {
		t.Error("no tiers accepted")
	}
	if _, err := New([]Tier{{Name: "x", Capacity: 0}}, nil, nil); err == nil {
		t.Error("zero-capacity tier accepted")
	}
}

func TestHitInAnyTierCounts(t *testing.T) {
	c, err := New(threeTiers(), AdmitAll{}, PlaceBySize(64<<10, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	// Small object -> ram; big object -> ssd; huge -> hdd.
	small := req(0, 1, 1<<10)
	big := req(1, 2, 512<<10)
	huge := req(2, 3, 8<<20)
	for _, r := range []trace.Request{small, big, huge} {
		if c.Request(r) {
			t.Fatal("first request hit")
		}
	}
	for i, r := range []trace.Request{small, big, huge} {
		if !c.Request(r) {
			t.Fatalf("repeat request %d missed", i)
		}
	}
	s := c.Stats()
	// small hits ram; big was placed in ssd but its hit promotes it; the
	// first repeat hit is counted in the tier it was found in.
	if s.Hits[0] < 1 {
		t.Errorf("ram hits = %d, want >= 1", s.Hits[0])
	}
	if s.Hits[1] != 1 || s.Hits[2] != 1 {
		t.Errorf("ssd,hdd hits = %d,%d, want 1,1", s.Hits[1], s.Hits[2])
	}
	if s.ReadCost != 1+10+100 {
		t.Errorf("ReadCost = %g, want 111", s.ReadCost)
	}
}

func TestPromotionMovesUp(t *testing.T) {
	c, err := New(threeTiers(), AdmitAll{}, func(trace.Request, float64) int { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	r := req(0, 1, 1<<10)
	c.Request(r) // placed in hdd
	c.Request(r) // hit in hdd, promoted to ssd
	c.Request(r) // hit in ssd, promoted to ram
	if !c.Request(r) {
		t.Fatal("missed after promotions")
	}
	s := c.Stats()
	if s.Hits[2] != 1 || s.Hits[1] != 1 || s.Hits[0] != 1 {
		t.Errorf("hit ladder = %v, want one hit per tier", s.Hits)
	}
}

func TestDemotionOnEviction(t *testing.T) {
	tiers := []Tier{
		{Name: "ram", Capacity: 2, ReadCost: 1},
		{Name: "ssd", Capacity: 10, ReadCost: 10},
	}
	c, err := New(tiers, AdmitAll{}, nil) // everything placed in ram
	if err != nil {
		t.Fatal(err)
	}
	c.Request(req(0, 1, 1))
	c.Request(req(1, 2, 1))
	c.Request(req(2, 3, 1)) // evicts 1 from ram -> demoted to ssd
	if c.Stats().Demotions != 1 {
		t.Fatalf("demotions = %d, want 1", c.Stats().Demotions)
	}
	if !c.Request(req(3, 1, 1)) {
		t.Error("demoted object lost instead of hitting in ssd")
	}
	if c.Stats().Hits[1] != 1 {
		t.Errorf("ssd hits = %d, want 1", c.Stats().Hits[1])
	}
}

func TestBottomTierEvictsToOrigin(t *testing.T) {
	tiers := []Tier{{Name: "ram", Capacity: 2, ReadCost: 1}}
	c, err := New(tiers, AdmitAll{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Request(req(0, 1, 1))
	c.Request(req(1, 2, 1))
	c.Request(req(2, 3, 1)) // evicts 1 entirely
	if c.Request(req(3, 1, 1)) {
		t.Error("evicted object still hit")
	}
}

func TestOversizedObjectSkipsTiers(t *testing.T) {
	c, err := New(threeTiers(), AdmitAll{}, nil) // placer -> tier 0
	if err != nil {
		t.Fatal(err)
	}
	// 8MB object cannot fit ram (1MB) or ssd (4MB); lands in hdd.
	c.Request(req(0, 1, 8<<20))
	if !c.Request(req(1, 1, 8<<20)) {
		t.Fatal("oversized-for-ram object not cached in hdd")
	}
	if c.Stats().Hits[2] != 1 {
		t.Errorf("hdd hits = %v", c.Stats().Hits)
	}
	// Larger than every tier: never cached.
	c.Request(req(2, 2, 64<<20))
	if c.Request(req(3, 2, 64<<20)) {
		t.Error("object larger than all tiers hit")
	}
}

func TestPlaceByLikelihood(t *testing.T) {
	p := PlaceByLikelihood(0.8, 0.4)
	r := req(0, 1, 1)
	if p(r, 0.9) != 0 || p(r, 0.5) != 1 || p(r, 0.1) != 2 {
		t.Error("likelihood placement wrong")
	}
}

// TestModelAdmitterEndToEnd trains an LFO model and uses it as the
// level-one decision of a tiered cache (§5's hierarchical model),
// checking it beats admit-all on BHR under pressure.
func TestModelAdmitterEndToEnd(t *testing.T) {
	tr, err := gen.Generate(gen.CDNMix(30000, 5))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	train := tr.Slice(0, 15000)
	eval := tr.Slice(15000, 30000)

	tiers := []Tier{
		{Name: "ram", Capacity: 2 << 20, ReadCost: 1},
		{Name: "ssd", Capacity: 6 << 20, ReadCost: 10},
		{Name: "hdd", Capacity: 8 << 20, ReadCost: 100},
	}
	var total int64
	for _, tt := range tiers {
		total += tt.Capacity
	}

	model, _, err := core.TrainOnWindow(train, core.Config{
		CacheSize:  total, // aggregate cache space, per §5
		WindowSize: train.Len(),
		OPT:        opt.Config{Algorithm: opt.AlgoFlow, RankFraction: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}

	learned, err := New(tiers, NewModelAdmitter(model, 0.5), PlaceByLikelihood(0.85, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	naive, err := New(tiers, AdmitAll{}, PlaceBySize(64<<10, 1<<20))
	if err != nil {
		t.Fatal(err)
	}

	lm := sim.Run(eval, learned, sim.Options{})
	nm := sim.Run(eval, naive, sim.Options{})
	if lm.BHR() <= nm.BHR() {
		t.Errorf("learned admission BHR %.4f <= admit-all %.4f", lm.BHR(), nm.BHR())
	}
	if learned.Stats().Hits[0] == 0 {
		t.Error("no RAM hits with likelihood placement")
	}
}

// TestModelAdmitterCutoff pins the cutoff's three readings against a
// constant model that scores every request 0.25: unset means 0.5, an
// explicit value is itself, and the CutoffAdmitAll sentinel is exactly 0
// (it used to fall through "cutoff <= 0" to 0.5 and gate silently).
func TestModelAdmitterCutoff(t *testing.T) {
	model := &gbdt.Model{Dim: features.Dim, BaseScore: math.Log(0.25 / 0.75)}
	if err := model.Compile(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cutoff float64
		admit  bool
	}{
		{0, false},
		{0.5, false},
		{0.2, true},
		{sim.CutoffAdmitAll, true},
	} {
		admit, p := NewModelAdmitter(model, tc.cutoff).Admit(req(1, 1, 100), 1<<20)
		if math.Abs(p-0.25) > 1e-12 {
			t.Fatalf("constant model scored %v, want 0.25", p)
		}
		if admit != tc.admit {
			t.Errorf("cutoff %v: admit = %v, want %v", tc.cutoff, admit, tc.admit)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("cutoff 1.5 accepted, want a panic")
		}
	}()
	NewModelAdmitter(model, 1.5)
}

func TestTieredIsPolicy(t *testing.T) {
	var _ sim.Policy = &TieredCache{}
}

// TestPromotionKeepsStoredSize: a hit promotes the object at the size it
// was stored with, as every other policy keeps the stored size on a hit.
// Re-counted at the request's size, RAM would hold 8 B.
func TestPromotionKeepsStoredSize(t *testing.T) {
	tiers := []Tier{{Name: "ram", Capacity: 10}, {Name: "ssd", Capacity: 10}}
	c, err := New(tiers, nil, func(trace.Request, float64) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	c.Request(req(0, 1, 2))
	if !c.Request(req(1, 1, 8)) {
		t.Fatal("second request missed")
	}
	if got := c.Used(); got[0] != 2 || got[1] != 0 {
		t.Errorf("tier bytes = %v, want [2 0]", got)
	}
}

// TestTieredInvariants replays the CDN and web mixes through the §5
// RAM/SSD/HDD shape and the S4LRU shape (four equal tiers, new objects in
// the bottom one) and checks after every request: a hit iff the object was
// resident in some tier; every tier within its capacity, its recency list
// as long as its store; every resident in exactly one tier; the per-tier
// hit counts summing to the run's hits.
func TestTieredInvariants(t *testing.T) {
	shapes := []struct {
		name   string
		tiers  []Tier
		placer Placer
	}{
		{"ram-ssd-hdd", []Tier{{Name: "ram", Capacity: 256 << 10}, {Name: "ssd", Capacity: 1 << 20}, {Name: "hdd", Capacity: 4 << 20}},
			PlaceBySize(16<<10, 256<<10)},
		{"s4lru", []Tier{{Capacity: 4 << 20}, {Capacity: 4 << 20}, {Capacity: 4 << 20}, {Capacity: 4 << 20}},
			func(trace.Request, float64) int { return 3 }},
	}
	for _, mix := range []struct {
		name string
		cfg  func(int, int64) gen.Config
	}{{"cdn", gen.CDNMix}, {"web", gen.WebMix}} {
		tr, err := gen.Generate(mix.cfg(20000, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			t.Run(mix.name+"/"+sh.name, func(t *testing.T) {
				c, err := New(sh.tiers, nil, sh.placer)
				if err != nil {
					t.Fatal(err)
				}
				hits := 0
				for i, r := range tr.Requests {
					resident := false
					for _, lvl := range c.levels {
						resident = resident || lvl.Store.Has(r.ID)
					}
					if hit := c.Request(r); hit != resident {
						t.Fatalf("request %d (id %d): hit=%v but resident before the call=%v", i, r.ID, hit, resident)
					} else if hit {
						hits++
					}
					for k, lvl := range c.levels {
						if lvl.Store.Used() > sh.tiers[k].Capacity {
							t.Fatalf("request %d: tier %d holds %d bytes of %d", i, k, lvl.Store.Used(), sh.tiers[k].Capacity)
						}
						if n := lvl.Evictor.(interface{ Len() int }).Len(); n != lvl.Store.Len() {
							t.Fatalf("request %d: tier %d lists %d objects and stores %d", i, k, n, lvl.Store.Len())
						}
						for j := 0; j < lvl.Store.Len(); j++ {
							id := lvl.Store.At(j).ID
							for m, other := range c.levels {
								if m != k && other.Store.Has(id) {
									t.Fatalf("request %d: object %d resident in tiers %d and %d", i, id, k, m)
								}
							}
						}
					}
					total := 0
					for _, h := range c.Stats().Hits {
						total += h
					}
					if total != hits {
						t.Fatalf("request %d: the tiers count %d hits, the run %d", i, total, hits)
					}
				}
				if c.Stats().Demotions == 0 {
					t.Fatal("the trace never demoted an object")
				}
			})
		}
	}
}
