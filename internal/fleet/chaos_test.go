package fleet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"lfo/internal/faultnet"
	"lfo/internal/gbdt"
	"lfo/internal/obs"
	"lfo/internal/server"
	"lfo/internal/trace"
)

// counterValue pulls one counter out of a registry snapshot.
func counterValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// chaosOutcome is everything one chaos run produces: the admission
// decision log (one byte per row, '1' = admit at cutoff 0.5, in input
// order) and the per-shard failover counts.
type chaosOutcome struct {
	log       []byte
	failovers []int64
	served    []int64
	fallbacks []int64
	up        []bool
}

// runChaos drives a fixed request stream against a 3-shard fleet while
// killing and restarting shards at fixed stream positions (always at
// flush boundaries, so a kill is a clean quiescent-point crash). Every
// row must complete — the admission path has no caller-visible errors by
// construction — and the whole outcome must be a pure function of the
// seed and the kill schedule.
func runChaos(t *testing.T, m *gbdt.Model, seed int64) chaosOutcome {
	t.Helper()
	h := newHarness(t, 3, m)
	reg := obs.NewRegistry()
	r, err := NewRouter(Config{
		Addrs: h.names(), Dial: h.dial,
		Batch: 8, MaxInFlight: 2, ProbeEvery: 4,
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rng := rand.New(rand.NewSource(seed))
	now := int64(0)
	var log []byte
	phase := func(rows int) {
		reqs := randReqs(rng, rows, now)
		now += int64(rows)
		probs := make([]float64, rows)
		for i := range probs {
			probs[i] = math.NaN()
		}
		for i := range reqs {
			r.Enqueue(reqs[i], &probs[i])
		}
		r.Flush()
		for i, p := range probs {
			if math.IsNaN(p) {
				t.Fatalf("row %d of the phase never completed", i)
			}
			if p >= 0.5 {
				log = append(log, '1')
			} else {
				log = append(log, '0')
			}
		}
	}

	phase(400)      // healthy fleet
	h.kill(1)       // crash shard 1 at a quiescent point
	phase(400)      // shard 1's range degrades to its censor
	h.restart(1, m) // bring it back on a fresh listener
	phase(600)      // probes re-admit shard 1 to the ring
	h.kill(2)       // second, independent kill
	phase(400)
	h.restart(2, m)
	phase(600)

	out := chaosOutcome{log: log}
	for i := 0; i < 3; i++ {
		p := func(name string) int64 {
			return counterValue(t, reg, "fleet_shard"+string(rune('0'+i))+"_"+name)
		}
		out.failovers = append(out.failovers, p("failovers_total"))
		out.served = append(out.served, p("rows_total"))
		out.fallbacks = append(out.fallbacks, p("fallback_rows_total"))
		out.up = append(out.up, r.ShardUp(i))
	}
	return out
}

// TestChaosKillRestartDeterministic is the chaos acceptance gate: a
// kill+restart schedule mid-run produces zero caller-visible errors, the
// per-shard failover counters match the injected kills exactly, every
// shard is re-admitted after recovery, and the decision log is
// byte-identical across same-seed reruns.
func TestChaosKillRestartDeterministic(t *testing.T) {
	m := trainModel(t, 1, bigObjects)
	a := runChaos(t, m, 42)
	b := runChaos(t, m, 42)

	if !bytes.Equal(a.log, b.log) {
		t.Fatalf("decision logs diverge across same-seed reruns (%d vs %d rows)", len(a.log), len(b.log))
	}
	if len(a.log) != 2400 {
		t.Fatalf("decision log has %d rows, want 2400", len(a.log))
	}
	wantFailovers := []int64{0, 1, 1} // exactly the injected kills
	for i, want := range wantFailovers {
		if a.failovers[i] != want {
			t.Errorf("shard %d failovers = %d, want %d", i, a.failovers[i], want)
		}
	}
	for i := 0; i < 3; i++ {
		if !a.up[i] {
			t.Errorf("shard %d not re-admitted by the end of the run", i)
		}
		if a.served[i] == 0 {
			t.Errorf("shard %d served no rows", i)
		}
	}
	// The killed shards must actually have degraded (fallback rows) and
	// the healthy shard must never have.
	if a.fallbacks[0] != 0 {
		t.Errorf("healthy shard 0 reports %d fallback rows", a.fallbacks[0])
	}
	for _, i := range []int{1, 2} {
		if a.fallbacks[i] == 0 {
			t.Errorf("killed shard %d reports no fallback rows", i)
		}
	}
	// Conservation: every row is either served remotely or by a fallback.
	var total int64
	for i := 0; i < 3; i++ {
		total += a.served[i] + a.fallbacks[i]
	}
	if total != 2400 {
		t.Errorf("served+fallback rows = %d, want 2400", total)
	}
}

// TestChaosRolloutReachesRecoveredShard: a shard that was down during a
// rollout receives the current model version while rejoining the ring —
// recovery never resurrects a stale model.
func TestChaosRolloutReachesRecoveredShard(t *testing.T) {
	mA := trainModel(t, 1, bigObjects)
	mB := trainModel(t, 99, smallObjects)
	h := newHarness(t, 3, mA)
	r, err := NewRouter(Config{Addrs: h.names(), Dial: h.dial, Batch: 8, MaxInFlight: 2, ProbeEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	h.kill(1)
	if err := r.Rollout(2, mB); err != nil {
		t.Fatalf("rollout with a down shard must succeed for the live shards: %v", err)
	}
	h.restart(1, mA) // restarted from its stale boot model

	// Drive traffic until probing re-admits shard 1.
	rng := rand.New(rand.NewSource(11))
	now := int64(0)
	for round := 0; round < 50 && !r.ShardUp(1); round++ {
		reqs := randReqs(rng, 100, now)
		now += 100
		probs := make([]float64, len(reqs))
		for i := range reqs {
			r.Enqueue(reqs[i], &probs[i])
		}
		r.Flush()
	}
	if !r.ShardUp(1) {
		t.Fatal("shard 1 never re-admitted")
	}
	if v := h.servers[1].ModelVersion(); v != 2 {
		t.Fatalf("recovered shard runs version %d, want 2 (pushed on reconnect)", v)
	}
	// And the fleet as a whole serves model B.
	probeModel(t, r, mB, mA)
}

// stalledShard is a shard that accepts connections and then never reads
// or answers: the failure no dial, write or read error ever reports.
func stalledShard(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn // the accept loop's until done closes
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
		for _, c := range held {
			_ = c.Close()
		}
	})
	return ln.Addr().String()
}

// runStalled drives a fixed stream at a two-shard fleet whose shard 1 is
// stalled and returns the decision log and the registry.
func runStalled(t *testing.T, m *gbdt.Model) ([]byte, *obs.Registry) {
	t.Helper()
	h := newHarness(t, 1, m)
	stalled := stalledShard(t)
	dial := func(addr string) (net.Conn, error) {
		if addr == "stalled" {
			return net.Dial("tcp", stalled)
		}
		return h.dial(addr)
	}
	reg := obs.NewRegistry()
	r, err := NewRouter(Config{
		Addrs: []string{"shard0", "stalled"}, Dial: dial,
		Batch: 8, MaxInFlight: 2, ProbeEvery: 1 << 30, // one stall, never re-probed
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.timeout = 150 * time.Millisecond

	reqs := randReqs(rand.New(rand.NewSource(13)), 600, 0)
	probs := make([]float64, len(reqs))
	for i := range probs {
		probs[i] = math.NaN()
		r.Enqueue(reqs[i], &probs[i])
	}
	r.Flush()

	// The healthy shard served its whole sub-stream from the model: row
	// for row what a server.Client gets on a connection of its own.
	var sub []server.AdmitRequest
	var got []float64
	log := make([]byte, len(reqs))
	for i, p := range probs {
		if math.IsNaN(p) {
			t.Fatalf("row %d never completed", i)
		}
		log[i] = '0'
		if p >= 0.5 {
			log[i] = '1'
		}
		if r.HomeShard(reqs[i].ID) == 0 {
			sub = append(sub, reqs[i])
			got = append(got, p)
		} else if p != 0 && p != 1 {
			t.Fatalf("stalled-shard row %d got non-censor likelihood %v", i, p)
		}
	}
	want := clientProbs(t, h.addrs[0], sub)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("healthy-shard row %d: router %v, client %v", k, got[k], want[k])
		}
	}
	if len(sub) == 0 || len(sub) == len(reqs) {
		t.Fatalf("%d of %d rows on the healthy shard: the stream must reach both", len(sub), len(reqs))
	}
	if r.ShardUp(1) || !r.ShardUp(0) {
		t.Errorf("shards up = (%v, %v), want (true, false)", r.ShardUp(0), r.ShardUp(1))
	}
	return log, reg
}

// TestRouterStalledShardDegrades: a shard that accepts and goes silent
// costs one deadline, counted as one failover; every row it owned is
// answered by its censor, the healthy shard keeps serving the model, and
// the decisions are the same on a rerun. Without the Router's deadline
// the first Flush never returns.
func TestRouterStalledShardDegrades(t *testing.T) {
	m := trainModel(t, 1, bigObjects)
	logA, reg := runStalled(t, m)
	for name, want := range map[string]int64{"fleet_shard1_failovers_total": 1, "fleet_shard1_rows_total": 0, "fleet_shard0_failovers_total": 0, "fleet_shard0_fallback_rows_total": 0} {
		if got := counterValue(t, reg, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	served := counterValue(t, reg, "fleet_shard0_rows_total")
	fallbacks := counterValue(t, reg, "fleet_shard1_fallback_rows_total")
	if served == 0 || fallbacks == 0 || served+fallbacks != int64(len(logA)) {
		t.Errorf("served %d + fallback %d rows, want both positive and %d in all", served, fallbacks, len(logA))
	}
	logB, _ := runStalled(t, m)
	if !bytes.Equal(logA, logB) {
		t.Error("decision logs of two runs against a stalled shard differ")
	}
}

// runAdmitChaos drives single-row admissions through a one-shard Router
// whose server sits behind a fault schedule (short reads and writes,
// stalls into the server's deadlines, mid-frame drops). ProbeEvery 1
// re-dials on the next row, so every connection-killing fault costs
// exactly one censor answer. Returns the decision log and the counters.
func runAdmitChaos(t *testing.T, seed uint64) (log string, served, fallbacks, failovers int64) {
	t.Helper()
	s := server.New(trainModel(t, 3, bigObjects), 1)
	s.Logf = func(string, ...interface{}) {}
	s.ReadTimeout = 100 * time.Millisecond
	s.WriteTimeout = 100 * time.Millisecond
	sched := faultnet.NewSchedule(faultnet.Config{
		Seed:      seed,
		ShortRead: 30, ShortWrite: 30,
		StallRead: 15, StallWrite: 15,
		DropRead: 30, DropWrite: 30,
		MaxShort: 6,
	})
	pl := faultnet.NewPipeListener()
	s.Serve(faultnet.Wrap(pl, sched))
	defer s.Close()

	reg := obs.NewRegistry()
	r, err := NewRouter(Config{Addrs: []string{"pipe"}, Dial: func(string) (net.Conn, error) { return pl.Dial() }, ProbeEvery: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var decisions strings.Builder
	const calls = 120
	for i := 0; i < calls; i++ {
		q := trace.Request{Time: int64(i), ID: trace.ObjectID(i % 17), Size: int64(100 + i%5*50), Cost: 1}
		ok, lik := r.Admit(q, 1<<19)
		r.Observe(q)
		fmt.Fprintf(&decisions, "%d %v %.6f\n", i, ok, lik)
	}
	served = counterValue(t, reg, "fleet_shard0_rows_total")
	fallbacks = counterValue(t, reg, "fleet_shard0_fallback_rows_total")
	failovers = counterValue(t, reg, "fleet_shard0_failovers_total")
	if served+fallbacks != calls {
		t.Errorf("served %d + fallback %d rows != %d calls", served, fallbacks, calls)
	}
	return decisions.String(), served, fallbacks, failovers
}

// TestRouterAdmitChaosFallback: under injected serving-path faults no
// admission ever errors — each failed round trip degrades to the censor,
// counted exactly once per failover — and the whole degraded run is
// deterministic.
func TestRouterAdmitChaosFallback(t *testing.T) {
	dec1, srv1, fb1, fo1 := runAdmitChaos(t, 5)
	if fb1 == 0 {
		t.Fatal("chaos schedule never forced a fallback")
	}
	if srv1 == 0 {
		t.Fatal("chaos schedule never let a remote prediction through")
	}
	if fb1 != fo1 {
		t.Errorf("fallback rows %d != failovers %d", fb1, fo1)
	}
	dec2, srv2, fb2, fo2 := runAdmitChaos(t, 5)
	if dec1 != dec2 || srv1 != srv2 || fb1 != fb2 || fo1 != fo2 {
		t.Errorf("degraded run not deterministic: (%d,%d,%d) vs (%d,%d,%d)", srv1, fb1, fo1, srv2, fb2, fo2)
	}
}
