package lfo

import (
	"bytes"
	"strings"
	"testing"

	"lfo/internal/fleet"
)

// The façade tests exercise the public API end to end, the way a
// downstream user would.

func TestPublicQuickstartFlow(t *testing.T) {
	tr, err := GenerateCDNMix(12000, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(ObjectiveBHR)
	cache, err := NewCache(CacheConfig{CacheSize: 8 << 20, WindowSize: 4000})
	if err != nil {
		t.Fatal(err)
	}
	m := Simulate(tr, cache, SimOptions{Warmup: 4000})
	if m.Requests != 8000 {
		t.Errorf("measured requests = %d, want 8000", m.Requests)
	}
	if cache.Windows() == 0 {
		t.Error("cache never retrained")
	}
	if m.BHR() <= 0 || m.BHR() >= 1 {
		t.Errorf("BHR = %g out of range", m.BHR())
	}
}

func TestPublicPolicies(t *testing.T) {
	names := PolicyNames()
	if len(names) < 10 {
		t.Fatalf("only %d policies", len(names))
	}
	tr, err := GenerateWebMix(5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		p, err := NewPolicy(n, 4<<20, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m := Simulate(tr, p, SimOptions{}); m.Requests != 5000 {
			t.Errorf("%s: requests = %d", n, m.Requests)
		}
	}
	if _, err := NewPolicy("bogus", 1, 1); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestPublicOPTAndModel(t *testing.T) {
	tr, err := GenerateWebMix(6000, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(ObjectiveBHR)
	res, err := ComputeOPT(tr, OPTConfig{CacheSize: 2 << 20, Algorithm: OPTFlow})
	if err != nil {
		t.Fatal(err)
	}
	if res.BHR() <= 0 {
		t.Error("OPT BHR zero")
	}
	model, err := TrainWindowModel(tr, CacheConfig{CacheSize: 2 << 20, WindowSize: 6000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumTrees() != model.NumTrees() {
		t.Error("model round trip lost trees")
	}
}

func TestPublicTraceIO(t *testing.T) {
	tr, err := GenerateWebMix(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Errorf("round trip %d != %d requests", got.Len(), tr.Len())
	}
}

func TestPublicPredictionService(t *testing.T) {
	tr, err := GenerateWebMix(6000, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(ObjectiveBHR)
	model, err := TrainWindowModel(tr, CacheConfig{CacheSize: 2 << 20, WindowSize: 6000})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewPredictionServer(model, 2)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A one-address router is the server's client; as an Admitter it
	// answers with the remote model's likelihood.
	router, err := NewFleetRouter(FleetConfig{Addrs: []string{addr.String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	req := Request{Time: 1, ID: 7, Size: 1024, Cost: 1024}
	row := make([]float64, FeatureDim)
	NewFeatureTracker(0).Features(req, 1<<20, row)
	admit, p := router.Admit(req, 1<<20)
	if want := model.Predict(row); p != want || admit != (want >= 0.5) {
		t.Errorf("Admit = %v, %g; the local model says %g", admit, p, want)
	}
}

func TestPublicMRC(t *testing.T) {
	tr, err := GenerateWebMix(20000, 6)
	if err != nil {
		t.Fatal(err)
	}
	curve := ComputeMRC(tr)
	sizes := LogCacheSizes(1<<20, 64<<20, 5)
	if len(sizes) != 5 {
		t.Fatalf("sizes = %d", len(sizes))
	}
	prev := -1.0
	for _, s := range sizes {
		b := curve.BHR(s)
		if b < prev {
			t.Fatalf("curve not monotone at %d", s)
		}
		prev = b
	}
	// The curve must agree with an actual LRU simulation.
	size := sizes[3]
	p, err := NewPolicy("lru", size, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := Simulate(tr, p, SimOptions{})
	if got := curve.BHR(size); got != m.BHR() {
		t.Errorf("curve BHR %.6f != simulated %.6f", got, m.BHR())
	}
	optPts, err := ComputeOPTCurve(tr, []int64{size}, OPTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if optPts[0].BHR < m.BHR() {
		t.Errorf("OPT %.4f below LRU %.4f", optPts[0].BHR, m.BHR())
	}
}

func TestPublicTieredCache(t *testing.T) {
	tr, err := GenerateCDNMix(20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(ObjectiveBHR)
	model, err := TrainWindowModel(tr.Slice(0, 10000), CacheConfig{CacheSize: 12 << 20, WindowSize: 10000})
	if err != nil {
		t.Fatal(err)
	}
	tiers := []Tier{
		{Name: "ram", Capacity: 2 << 20, ReadCost: 1},
		{Name: "ssd", Capacity: 4 << 20, ReadCost: 10},
		{Name: "hdd", Capacity: 6 << 20, ReadCost: 100},
	}
	learned, err := NewTieredCache(tiers, NewModelAdmitter(model, 0.5), PlaceByLikelihood(0.85, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewTieredCache(tiers, nil, PlaceBySize(64<<10, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	eval := tr.Slice(10000, 20000)
	lm := Simulate(eval, learned, SimOptions{})
	nm := Simulate(eval, naive, SimOptions{})
	if lm.BHR() <= nm.BHR() {
		t.Errorf("learned tiered BHR %.4f <= naive %.4f", lm.BHR(), nm.BHR())
	}
	st := learned.Stats()
	if st.Hits[0]+st.Hits[1]+st.Hits[2] != lm.Hits {
		t.Errorf("tier hits %v don't sum to %d", st.Hits, lm.Hits)
	}
}

func TestPublicCompactProtocol(t *testing.T) {
	tr, err := GenerateWebMix(6000, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(ObjectiveBHR)
	model, err := TrainWindowModel(tr, CacheConfig{CacheSize: 2 << 20, WindowSize: tr.Len()})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewPredictionServer(model, 0)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	router, err := NewFleetRouter(FleetConfig{Addrs: []string{addr.String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	// The server tracks the tuples' history: the second request sees
	// the first, as a local tracker fed the same stream does.
	reqs := []AdmitRequest{
		{Time: 1, ID: 9, Size: 1024, Cost: 1024, Free: 1 << 20},
		{Time: 2, ID: 9, Size: 1024, Cost: 1024, Free: 1 << 20},
	}
	probs := make([]float64, len(reqs))
	for i := range reqs {
		router.Enqueue(reqs[i], &probs[i])
	}
	router.Flush()
	tracker := NewFeatureTracker(0)
	row := make([]float64, FeatureDim)
	for i, ar := range reqs {
		r := Request{Time: ar.Time, ID: ObjectID(ar.ID), Size: ar.Size, Cost: ar.Cost}
		tracker.Features(r, ar.Free, row)
		tracker.Update(r)
		if want := model.Predict(row); probs[i] != want {
			t.Errorf("request %d: remote %g, local %g", i, probs[i], want)
		}
	}
}

// TestPublicFleetRingDefault: replicas 0 is the router's default ring,
// not an empty one; a shard count that is not positive panics.
func TestPublicFleetRingDefault(t *testing.T) {
	def, explicit := NewFleetRing(4, 0), NewFleetRing(4, fleet.DefaultReplicas)
	for id := uint64(0); id < 5000; id++ {
		if a, b := def.Shard(id), explicit.Shard(id); a != b {
			t.Fatalf("id %d: replicas 0 routes to %d, the default ring to %d", id, a, b)
		}
	}
	if got := def.Shards(); got != 4 {
		t.Errorf("Shards() = %d, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewFleetRing(0, 0) returned a ring")
		}
	}()
	NewFleetRing(0, 0)
}
