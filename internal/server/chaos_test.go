package server

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"lfo/internal/faultnet"
	"lfo/internal/features"
	"lfo/internal/obs"
)

// chaosConfig is the shared fault schedule for the determinism runs:
// every fault kind at once, rates high enough that a run of chaosCalls
// calls sees many of each.
func chaosConfig(seed uint64) faultnet.Config {
	return faultnet.Config{
		Seed:        seed,
		ShortRead:   40,
		ShortWrite:  40,
		StallRead:   20,
		StallWrite:  20,
		DropRead:    40,
		DropWrite:   40,
		AcceptError: 100,
		MaxShort:    6,
	}
}

const chaosCalls = 80

// chaosOutcome is everything a chaos session observes; runs with the same
// seed must produce identical outcomes, field for field.
type chaosOutcome struct {
	results string // per-call probabilities, bit-exact
	server  string // server counters+gauges snapshot
	client  string // client counters+gauges snapshot
	stats   faultnet.Stats
}

// dumpCountersGauges renders the deterministic part of a registry
// (histograms record wall-clock latencies and are excluded).
func dumpCountersGauges(r *obs.Registry) string {
	snap := r.Snapshot()
	var b strings.Builder
	for _, m := range snap.Counters {
		fmt.Fprintf(&b, "%s %d\n", m.Name, m.Value)
	}
	for _, m := range snap.Gauges {
		fmt.Fprintf(&b, "%s %d\n", m.Name, m.Value)
	}
	return b.String()
}

// waitNoOpenConns polls until every handler has finished (and therefore
// every counter increment has settled) before the final snapshot.
func waitNoOpenConns(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 && s.Obs.Gauge("server_open_connections").Value() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("handlers never went idle")
}

// waitAcceptTail waits for the accept loop's deterministic tail. After
// the last accepted connection, the loop keeps consuming schedule
// decisions (counting injected rejects, with backoff) until the next Pass
// decision, where it blocks in the underlying Accept. A pure replay of
// the schedule tells exactly how many accept errors must be counted once
// the loop has settled.
func waitAcceptTail(t *testing.T, seed uint64, sreg *obs.Registry, accepted int64) {
	t.Helper()
	replay := faultnet.NewSchedule(chaosConfig(seed))
	var want, passes int64
	for idx := int64(0); passes <= accepted; idx++ {
		if replay.Decide(-1, faultnet.OpAccept, idx).Action == faultnet.Reject {
			want++
		} else {
			passes++
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if sreg.Counter("server_accept_errors_total").Value() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("server_accept_errors_total = %d never reached replayed %d",
		sreg.Counter("server_accept_errors_total").Value(), want)
}

// runChaosSession drives chaosCalls sequential Predict calls through a
// fault-injecting pipe listener and returns everything observed.
func runChaosSession(t *testing.T, seed uint64, workers int) chaosOutcome {
	t.Helper()
	m := testModel(t)
	sreg, creg := obs.NewRegistry(), obs.NewRegistry()
	s := New(m, workers)
	s.Logf = func(format string, args ...interface{}) {} // injected drops are expected noise
	s.Obs = sreg
	s.ReadTimeout = 100 * time.Millisecond
	s.WriteTimeout = 100 * time.Millisecond
	s.DrainTimeout = 5 * time.Second
	sched := faultnet.NewSchedule(chaosConfig(seed))
	pl := faultnet.NewPipeListener()
	s.Serve(faultnet.Wrap(pl, sched))

	c, err := DialConfig("pipe", ClientConfig{
		Timeout:    2 * time.Second, // well past the server's deadlines: the server side times out first, deterministically
		MaxRetries: 64,
		Backoff:    -1, // immediate retries keep the run fast; determinism is schedule-given
		Dial:       pl.Dial,
		Obs:        creg,
	})
	if err != nil {
		t.Fatal(err)
	}

	rows := make([]float64, features.Dim)
	var results strings.Builder
	for i := 0; i < chaosCalls; i++ {
		for j := range rows {
			rows[j] = float64((i*31+j*7)%23) / 4
		}
		probs, err := c.Predict(rows)
		if err != nil {
			t.Fatalf("call %d surfaced an error retries should have absorbed: %v", i, err)
		}
		if len(probs) != 1 {
			t.Fatalf("call %d returned %d probs", i, len(probs))
		}
		fmt.Fprintf(&results, "%d %x\n", i, math.Float64bits(probs[0]))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitNoOpenConns(t, s)
	waitAcceptTail(t, seed, sreg, creg.Counter("client_reconnects_total").Value()+1)
	out := chaosOutcome{
		results: results.String(),
		server:  dumpCountersGauges(sreg),
		client:  dumpCountersGauges(creg),
		stats:   sched.Stats(),
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestChaosScheduleMatchesCounters is the exact-accounting half of the
// chaos gate: each injected fault kind maps 1:1 onto a hardened-path
// counter, so the observed counters must equal the schedule's own
// injection stats — no fault unobserved, no phantom failures.
func TestChaosSchedule(t *testing.T) {
	out := runChaosSession(t, 1234, 1)
	st := out.stats
	if st.ShortReads == 0 || st.ShortWrites == 0 || st.StallReads == 0 ||
		st.StallWrites == 0 || st.DropReads == 0 || st.DropWrites == 0 || st.AcceptErrors == 0 {
		t.Fatalf("schedule too tame, some fault kind never injected: %+v", st)
	}
	vars := map[string]int64{}
	for _, line := range strings.Split(out.server+out.client, "\n") {
		var name string
		var v int64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err == nil {
			vars[name] = v
		}
	}
	// Server-side accounting: injected stalls run into the corresponding
	// deadline; drops and desyncing short writes surface as read/write
	// errors; accept injections land on the resilient accept loop.
	checks := []struct {
		counter string
		want    int64
	}{
		{"server_read_timeouts_total", st.StallReads},
		{"server_write_timeouts_total", st.StallWrites},
		{"server_read_errors_total", st.DropReads},
		{"server_write_errors_total", st.DropWrites + st.ShortWrites},
		{"server_accept_errors_total", st.AcceptErrors},
		{"server_bad_requests_total", 0},
		{"server_drain_force_closes_total", 0},
		{"server_open_connections", 0},
		// The client never exhausts retries and never hits its own (much
		// longer) deadline: degradation is absorbed, not surfaced.
		{"client_failures_total", 0},
		{"client_timeouts_total", 0},
	}
	for _, c := range checks {
		if got := vars[c.counter]; got != c.want {
			t.Errorf("%s = %d, want %d (schedule %+v)", c.counter, got, c.want, st)
		}
	}
	// Every retry re-dials a fresh connection after dropping the desynced
	// one, so the two counters must agree.
	if vars["client_retries_total"] != vars["client_reconnects_total"] {
		t.Errorf("retries %d != reconnects %d", vars["client_retries_total"], vars["client_reconnects_total"])
	}
	if vars["client_retries_total"] == 0 {
		t.Error("chaos run never forced a retry")
	}
}

// TestChaosDeterminism is the regression half of the gate: the same
// seeded schedule must reproduce byte-identical client results, metrics
// snapshots, and injection stats across runs and across server worker
// counts.
func TestChaosDeterminism(t *testing.T) {
	base := runChaosSession(t, 42, 1)
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"rerun", 1},
		{"workers4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runChaosSession(t, 42, tc.workers)
			if got.stats != base.stats {
				t.Errorf("injection stats diverged:\n%+v\n%+v", got.stats, base.stats)
			}
			if got.results != base.results {
				t.Error("client results diverged between identical seeded runs")
			}
			if got.server != base.server {
				t.Errorf("server snapshots diverged:\n--- base\n%s--- got\n%s", base.server, got.server)
			}
			if got.client != base.client {
				t.Errorf("client snapshots diverged:\n--- base\n%s--- got\n%s", base.client, got.client)
			}
		})
	}
	// Different seed, different chaos — guard against the schedule being
	// ignored entirely.
	other := runChaosSession(t, 43, 1)
	if other.stats == base.stats {
		t.Error("different seeds injected identical fault sequences")
	}
}

// TestChaosFailFastWithoutRetries pins the Client's half of the
// degradation story (the Router's half is TestRouterAdmitChaosFallback in
// internal/fleet): with retries disabled, every conn-killing fault
// surfaces as exactly one client failure, deterministically.
func TestChaosFailFastWithoutRetries(t *testing.T) {
	m := testModel(t)
	sched := faultnet.NewSchedule(chaosConfig(7))
	pl := faultnet.NewPipeListener()
	s := New(m, 1)
	s.Logf = func(format string, args ...interface{}) {}
	s.Obs = obs.NewRegistry()
	s.ReadTimeout = 100 * time.Millisecond
	s.WriteTimeout = 100 * time.Millisecond
	s.Serve(faultnet.Wrap(pl, sched))
	defer s.Close()

	creg := obs.NewRegistry()
	c, err := DialConfig("pipe", ClientConfig{
		Timeout:    2 * time.Second,
		MaxRetries: -1, // fail on first transport error
		Dial:       pl.Dial,
		Obs:        creg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows := make([]float64, features.Dim)
	var failures int64
	for i := 0; i < 40; i++ {
		if _, err := c.Predict(rows); err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("chaos schedule never failed a call")
	}
	if got := creg.Counter("client_failures_total").Value(); got != failures {
		t.Errorf("client_failures_total = %d, observed %d failed calls", got, failures)
	}
	if got := creg.Counter("client_retries_total").Value(); got != 0 {
		t.Errorf("client_retries_total = %d with retries disabled", got)
	}
}
