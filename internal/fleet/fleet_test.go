package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"testing"

	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/obs"
	"lfo/internal/server"
	"lfo/internal/trace"
)

// trainModel trains a small model whose label is sizeRule(size); distinct
// rules give distinguishable models for rollout tests.
func trainModel(tb testing.TB, seed int64, sizeRule func(float64) bool) *gbdt.Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := gbdt.NewDataset(features.Dim)
	row := make([]float64, features.Dim)
	for i := 0; i < 2000; i++ {
		for j := range row {
			row[j] = rng.Float64() * 100
		}
		label := 0.0
		if sizeRule(row[features.FeatSize]) {
			label = 1
		}
		ds.Append(row, label)
	}
	p := gbdt.DefaultParams()
	p.NumIterations = 10
	m, err := gbdt.Train(ds, p)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func bigObjects(size float64) bool   { return size > 50 }
func smallObjects(size float64) bool { return size < 30 }

// harness runs N shard servers behind stable logical names ("shard0",
// "shard1", …) whose Dial mapping the test can repoint — killing and
// restarting a shard changes the real listener, not the name the router
// routes on.
type harness struct {
	tb      testing.TB
	model   *gbdt.Model
	servers []*server.Server
	addrs   []string
}

func newHarness(tb testing.TB, n int, m *gbdt.Model) *harness {
	tb.Helper()
	h := &harness{tb: tb, model: m, servers: make([]*server.Server, n), addrs: make([]string, n)}
	for i := 0; i < n; i++ {
		h.restart(i, m)
	}
	tb.Cleanup(func() {
		for _, s := range h.servers {
			if s != nil {
				_ = s.Close()
			}
		}
	})
	return h
}

// names returns the logical shard addresses for Config.Addrs.
func (h *harness) names() []string {
	names := make([]string, len(h.servers))
	for i := range names {
		names[i] = fmt.Sprintf("shard%d", i)
	}
	return names
}

// dial resolves a logical shard name to the shard's current listener.
func (h *harness) dial(addr string) (net.Conn, error) {
	i, err := strconv.Atoi(strings.TrimPrefix(addr, "shard"))
	if err != nil || i < 0 || i >= len(h.addrs) {
		return nil, fmt.Errorf("harness: unknown shard %q", addr)
	}
	return net.Dial("tcp", h.addrs[i])
}

// kill closes shard i's server; Close drains handlers, so when it
// returns no further responses can arrive on existing connections.
func (h *harness) kill(i int) {
	h.tb.Helper()
	if err := h.servers[i].Close(); err != nil {
		h.tb.Fatalf("kill shard %d: %v", i, err)
	}
}

// restart boots shard i on a fresh listener with the given model.
func (h *harness) restart(i int, m *gbdt.Model) {
	h.tb.Helper()
	s := server.New(m, 2)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		h.tb.Fatal(err)
	}
	h.servers[i] = s
	h.addrs[i] = addr.String()
}

// randReqs generates a deterministic admit stream: IDs recur (so the
// censor path is meaningful), sizes and times vary.
func randReqs(rng *rand.Rand, n int, startTime int64) []server.AdmitRequest {
	reqs := make([]server.AdmitRequest, n)
	for i := range reqs {
		reqs[i] = server.AdmitRequest{
			Time: startTime + int64(i),
			ID:   rng.Uint64() % 300,
			Size: 1 + rng.Int63n(1<<20),
			Cost: 1,
			Free: 1 << 30,
		}
	}
	return reqs
}

// clientProbs is what a synchronous server.Client gets for reqs on a
// connection of its own: the reference a shard's sub-stream is held to.
func clientProbs(t *testing.T, addr string, reqs []server.AdmitRequest) []float64 {
	t.Helper()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	probs, err := c.Admit(reqs)
	if err != nil {
		t.Fatalf("client %s: %v", addr, err)
	}
	return probs
}

// nextFreshID hands out object IDs no request stream of these tests uses.
// Not shard<<32|k: those are the keys the ring hashes its own virtual
// points from, so such an ID lands exactly on that shard's point.
var nextFreshID uint64 = 1 << 40

// probeModel checks which model the fleet serves through admission rows
// for objects no shard has seen: a first-seen row's features are its
// size, cost and free bytes with every gap missing, whatever else the
// shard's tracker holds, so the expected probability needs no replay.
// other is a model the fleet must not be serving; at least one probe has
// to tell the two apart.
func probeModel(t *testing.T, r *Router, want, other *gbdt.Model) {
	t.Helper()
	const n = 40
	reqs := make([]server.AdmitRequest, n)
	probs := make([]float64, n)
	for i := range reqs {
		nextFreshID++
		reqs[i] = server.AdmitRequest{Time: int64(i), ID: nextFreshID, Size: int64(1 + i*100/n), Cost: 1, Free: 1 << 30}
		r.Enqueue(reqs[i], &probs[i])
	}
	r.Flush()
	row := make([]float64, features.Dim)
	fresh := features.NewTracker(0)
	told := false
	probed := make([]bool, r.Shards())
	for i, q := range reqs {
		probed[r.HomeShard(q.ID)] = true
		fresh.Features(trace.Request{Time: q.Time, ID: trace.ObjectID(q.ID), Size: q.Size, Cost: q.Cost}, q.Free, row)
		if w := want.Predict(row); probs[i] != w {
			t.Fatalf("probe %d (shard %d) served by a stale model: %v, want %v", i, r.HomeShard(q.ID), probs[i], w)
		} else if w != other.Predict(row) {
			told = true
		}
	}
	if !told {
		t.Fatal("no probe row tells the two models apart")
	}
	for i, ok := range probed {
		if !ok {
			t.Fatalf("no probe row reached shard %d", i)
		}
	}
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	a, b := NewRing(3, 64), NewRing(3, 64)
	counts := make([]int, 3)
	for id := uint64(0); id < 30000; id++ {
		sa, sb := a.Shard(id), b.Shard(id)
		if sa != sb {
			t.Fatalf("id %d: ring built twice disagrees (%d vs %d)", id, sa, sb)
		}
		counts[sa]++
	}
	for s, c := range counts {
		if c < 30000/3/3 {
			t.Errorf("shard %d owns only %d of 30000 ids — ring badly unbalanced", s, c)
		}
	}
	if got := a.Shards(); got != 3 {
		t.Errorf("Shards() = %d, want 3", got)
	}
	one := NewRing(1, 8)
	for id := uint64(0); id < 100; id++ {
		if one.Shard(id) != 0 {
			t.Fatalf("single-shard ring routed id %d to %d", id, one.Shard(id))
		}
	}
}

// TestRingRejectsEmpty: a ring with no points would own no object, so a
// shard or replica count that is not positive panics with the counts.
func TestRingRejectsEmpty(t *testing.T) {
	for _, c := range [][2]int{{0, 64}, {3, 0}, {-1, 8}, {2, -5}} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "positive shard and replica count") {
					t.Errorf("NewRing(%d, %d): recovered %v, want the count panic", c[0], c[1], r)
				}
			}()
			NewRing(c[0], c[1])
		}()
	}
}

// TestRouterMatchesPerShardClient is the equivalence property: the
// pipelined router must return, row for row, exactly what a synchronous
// server.Client would have returned had it sent each shard's
// sub-stream over its own connection.
func TestRouterMatchesPerShardClient(t *testing.T) {
	m := trainModel(t, 1, bigObjects)
	h := newHarness(t, 3, m)
	r, err := NewRouter(Config{Addrs: h.names(), Dial: h.dial, Batch: 8, MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	reqs := randReqs(rand.New(rand.NewSource(5)), 500, 0)
	probs := make([]float64, len(reqs))
	for i := range reqs {
		r.Enqueue(reqs[i], &probs[i])
	}
	r.Flush()

	perShard := make(map[int][]int)
	for i := range reqs {
		s := r.HomeShard(reqs[i].ID)
		perShard[s] = append(perShard[s], i)
	}
	for s, idxs := range perShard {
		sub := make([]server.AdmitRequest, len(idxs))
		for k, i := range idxs {
			sub[k] = reqs[i]
		}
		want := clientProbs(t, h.addrs[s], sub)
		for k, i := range idxs {
			if probs[i] != want[k] {
				t.Fatalf("row %d (shard %d): router %v, client %v", i, s, probs[i], want[k])
			}
		}
	}
}

func TestRouterRolloutBroadcast(t *testing.T) {
	mA := trainModel(t, 1, bigObjects)
	mB := trainModel(t, 99, smallObjects)
	h := newHarness(t, 3, mA)
	r, err := NewRouter(Config{Addrs: h.names(), Dial: h.dial, Batch: 16, MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if err := r.Rollout(2, mB); err != nil {
		t.Fatalf("rollout: %v", err)
	}
	if v := r.ModelVersion(); v != 2 {
		t.Fatalf("router version %d, want 2", v)
	}
	for i, s := range h.servers {
		if v := s.ModelVersion(); v != 2 {
			t.Fatalf("shard %d at version %d after broadcast", i, v)
		}
	}
	probeModel(t, r, mB, mA)
	if err := r.Rollout(1, mA); err == nil {
		t.Fatal("stale rollout accepted")
	}
	if err := r.Rollout(0, mA); err == nil {
		t.Fatal("version-0 rollout accepted")
	}
}

// TestRouterRolloutRejectsWrongWidth: a model that does not score
// features.Dim-wide rows is an invalid argument, refused before Rollout
// flushes anything. Broadcast, every shard would refuse it and fail over,
// and each reconnect would push it again.
func TestRouterRolloutRejectsWrongWidth(t *testing.T) {
	narrow := &gbdt.Model{Dim: 2, BaseScore: 1}
	if err := narrow.Compile(); err != nil {
		t.Fatal(err)
	}
	r := stubRouter(t, Config{}, &stubConn{})
	pending := math.NaN()
	r.Enqueue(server.AdmitRequest{ID: 1, Size: 100, Cost: 1}, &pending)
	if err := r.Rollout(1, narrow); err == nil || !strings.Contains(err.Error(), "scores 2 features") {
		t.Fatalf("2-feature rollout: %v", err)
	}
	if !math.IsNaN(pending) || r.ModelVersion() != 0 || !r.ShardUp(0) {
		t.Errorf("refused rollout flushed (%v), recorded version %d, or downed the shard (up %v)", pending, r.ModelVersion(), r.ShardUp(0))
	}
}

// TestRouterUnreachableShardDegrades: a shard that never comes up only
// degrades its own key range — its rows get censor answers, other
// shards' rows get model answers, and nothing errors.
func TestRouterUnreachableShardDegrades(t *testing.T) {
	m := trainModel(t, 1, bigObjects)
	h := newHarness(t, 2, m)
	// Three logical shards, but shard2 has no server behind it.
	addrs := append(h.names(), "shard2-unreachable")
	dial := func(addr string) (net.Conn, error) {
		if strings.Contains(addr, "unreachable") {
			return nil, fmt.Errorf("harness: shard is gone")
		}
		return h.dial(addr)
	}
	r, err := NewRouter(Config{Addrs: addrs, Dial: dial, Batch: 8, MaxInFlight: 2, ProbeEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.ShardUp(2) {
		t.Fatal("unreachable shard reported up")
	}

	reqs := randReqs(rand.New(rand.NewSource(7)), 400, 0)
	probs := make([]float64, len(reqs))
	for i := range probs {
		probs[i] = math.NaN()
	}
	for i := range reqs {
		r.Enqueue(reqs[i], &probs[i])
	}
	r.Flush()

	downRows := 0
	for i := range reqs {
		if math.IsNaN(probs[i]) {
			t.Fatalf("row %d never completed", i)
		}
		if r.HomeShard(reqs[i].ID) == 2 {
			downRows++
			if probs[i] != 0 && probs[i] != 1 {
				t.Fatalf("down-shard row %d got non-censor likelihood %v", i, probs[i])
			}
		}
	}
	if downRows == 0 {
		t.Fatal("test stream never hit the down shard's range")
	}
	// A second pass over the same IDs must see censor admits (seen → 1)
	// for the down range: its history was fed by the first pass.
	rerun := randReqs(rand.New(rand.NewSource(7)), 400, 400)
	probs2 := make([]float64, len(rerun))
	for i := range rerun {
		r.Enqueue(rerun[i], &probs2[i])
	}
	r.Flush()
	for i := range rerun {
		if r.HomeShard(rerun[i].ID) == 2 && probs2[i] != 1 {
			t.Fatalf("repeat row %d not admitted by warm censor (got %v)", i, probs2[i])
		}
	}
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := NewRouter(Config{}); err == nil {
		t.Fatal("empty Addrs accepted")
	}
	if _, err := NewRouter(Config{Addrs: []string{"a"}, Batch: -1}); err == nil {
		t.Fatal("negative batch accepted")
	}
	dialFail := func(string) (net.Conn, error) { return nil, fmt.Errorf("no") }
	if _, err := NewRouter(Config{Addrs: []string{"a", "b"}, Dial: dialFail}); err == nil {
		t.Fatal("fleet with zero reachable shards accepted")
	}
}

// TestRouterAllShardsDownDegrades: with the whole fleet gone nothing
// errors — every row is answered by its shard's censor, each shard fails
// over once, and a repeat of the stream is admitted from warm history.
func TestRouterAllShardsDownDegrades(t *testing.T) {
	m := trainModel(t, 1, bigObjects)
	h := newHarness(t, 2, m)
	reg := obs.NewRegistry()
	r, err := NewRouter(Config{Addrs: h.names(), Dial: h.dial, Batch: 8, MaxInFlight: 2, ProbeEvery: 1 << 30, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h.kill(0)
	h.kill(1)
	for pass := 0; pass < 2; pass++ {
		reqs := randReqs(rand.New(rand.NewSource(7)), 200, int64(pass)*200)
		probs := make([]float64, len(reqs))
		for i := range probs {
			probs[i] = math.NaN()
			r.Enqueue(reqs[i], &probs[i])
		}
		r.Flush()
		for i, p := range probs {
			if p != 1 && (pass == 1 || p != 0) {
				t.Fatalf("pass %d row %d: likelihood %v is not the censor's", pass, i, p)
			}
		}
	}
	for i := 0; i < 2; i++ {
		if r.ShardUp(i) {
			t.Errorf("shard %d reported up", i)
		}
		if got := counterValue(t, reg, fmt.Sprintf("fleet_shard%d_failovers_total", i)); got != 1 {
			t.Errorf("shard %d failovers = %d, want 1", i, got)
		}
	}
}
