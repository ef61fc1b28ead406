package fleet

import (
	"fmt"
	"math"
	"net"
	"testing"

	"lfo/internal/obs"
	"lfo/internal/server"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// The Router is the remote admission path of every cache that takes a
// pluggable admitter.
var _ sim.Admitter = (*Router)(nil)

// stubRouter returns a one-shard Router whose k-th dial gets conns[k];
// dials beyond that fail.
func stubRouter(t *testing.T, cfg Config, conns ...*stubConn) *Router {
	t.Helper()
	cfg.Addrs = []string{"stub"}
	cfg.Dial = func(string) (net.Conn, error) {
		if len(conns) == 0 {
			return nil, fmt.Errorf("stub: no shard to dial")
		}
		c := conns[0]
		conns = conns[1:]
		return c, nil
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func admitReq(id trace.ObjectID) trace.Request {
	return trace.Request{Time: int64(id), ID: id, Size: 100, Cost: 2}
}

func TestRouterAdmitUsesRemoteLikelihood(t *testing.T) {
	shard := &stubConn{probs: []float64{0.9, 0.1}, record: true}
	reg := obs.NewRegistry()
	r := stubRouter(t, Config{Obs: reg}, shard)
	if ok, lik := r.Admit(admitReq(1), 500); !ok || lik != 0.9 {
		t.Errorf("Admit = (%v, %v), want (true, 0.9)", ok, lik)
	}
	if ok, lik := r.Admit(admitReq(2), 500); ok || lik != 0.1 {
		t.Errorf("Admit = (%v, %v), want (false, 0.1)", ok, lik)
	}
	if got := counterValue(t, reg, "fleet_shard0_rows_total"); got != 2 {
		t.Errorf("rows counter = %d, want 2", got)
	}
	if got := counterValue(t, reg, "fleet_shard0_fallback_rows_total"); got != 0 {
		t.Errorf("fallback counter = %d, want 0", got)
	}
	// The wire tuple carries the request and free bytes faithfully.
	want := server.AdmitRequest{Time: 2, ID: 2, Size: 100, Cost: 2, Free: 500}
	if shard.last != want {
		t.Errorf("wire tuple %+v, want %+v", shard.last, want)
	}
}

func TestRouterAdmitFallsBackOnError(t *testing.T) {
	shard := &stubConn{}
	reg := obs.NewRegistry()
	r := stubRouter(t, Config{Obs: reg, ProbeEvery: 1 << 30}, shard)
	shard.down = true
	// The fallback is the second-hit censor: first sight denied...
	if ok, _ := r.Admit(admitReq(7), 0); ok {
		t.Error("fallback admitted an unseen object")
	}
	r.Observe(admitReq(7)) // a no-op: the fallback observed the row at completion
	// ...second sight admitted, still through the fallback.
	if ok, lik := r.Admit(admitReq(7), 0); !ok || lik != 1 {
		t.Errorf("fallback answered a previously seen object with (%v, %v)", ok, lik)
	}
	for name, want := range map[string]int64{"failovers_total": 1, "fallback_rows_total": 2, "rows_total": 0} {
		if got := counterValue(t, reg, "fleet_shard0_"+name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestRouterAdmitRecoversAfterProbe: the ProbeEvery-th fallback row
// re-dials, and from then on Admit returns remote likelihoods again.
func TestRouterAdmitRecoversAfterProbe(t *testing.T) {
	broken, healthy := &stubConn{}, &stubConn{probs: []float64{0.8}}
	reg := obs.NewRegistry()
	r := stubRouter(t, Config{Obs: reg, ProbeEvery: 3}, broken, healthy)
	broken.down = true
	for id := trace.ObjectID(1); id <= 3; id++ { // the failing row, then two of the three a probe waits for
		if ok, lik := r.Admit(admitReq(id), 0); ok || lik != 0 {
			t.Fatalf("degraded Admit %d = (%v, %v), want the censor's (false, 0)", id, ok, lik)
		}
	}
	if r.ShardUp(0) {
		t.Fatal("shard re-admitted before its probe was due")
	}
	if ok, lik := r.Admit(admitReq(4), 0); !ok || lik != 0.8 {
		t.Errorf("post-recovery Admit = (%v, %v), want (true, 0.8)", ok, lik)
	}
	if !r.ShardUp(0) {
		t.Error("shard not re-admitted by its probe")
	}
	if got := counterValue(t, reg, "fleet_shard0_fallback_rows_total"); got != 3 {
		t.Errorf("fallback rows = %d, want 3", got)
	}
}

func TestRouterAdmitCutoff(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cutoff float64
		prob   float64
		want   bool
	}{
		{"unset means 0.5, at", 0, 0.5, true},
		{"unset means 0.5, below", 0, 0.49, false},
		{"explicit, above", 0.25, 0.3, true},
		{"explicit, below", 0.25, 0.2, false},
		{"admit-all scores 0", sim.CutoffAdmitAll, 0, true},
		{"one", 1, 0.99, false},
	} {
		r := stubRouter(t, Config{Cutoff: tc.cutoff}, &stubConn{probs: []float64{tc.prob}})
		if ok, lik := r.Admit(admitReq(1), 0); ok != tc.want || lik != tc.prob {
			t.Errorf("%s: Admit = (%v, %v), want (%v, %v)", tc.name, ok, lik, tc.want, tc.prob)
		}
	}
	for _, bad := range []float64{1.5, -0.5, math.NaN()} {
		if _, err := NewRouter(Config{Addrs: []string{"stub"}, Cutoff: bad}); err == nil {
			t.Errorf("cutoff %v accepted", bad)
		}
	}

	// A fallback row returns the censor's decision, not its 0/1
	// likelihood against the cutoff: 0 >= 0 would admit every first
	// sight of a degraded shard under CutoffAdmitAll.
	shard := &stubConn{}
	r := stubRouter(t, Config{Cutoff: sim.CutoffAdmitAll, ProbeEvery: 1 << 30}, shard)
	shard.down = true
	if ok, lik := r.Admit(admitReq(9), 0); ok || lik != 0 {
		t.Errorf("shard down, admit-all, first sight: (%v, %v), want the censor's (false, 0)", ok, lik)
	}
	if ok, lik := r.Admit(admitReq(9), 0); !ok || lik != 1 {
		t.Errorf("shard down, admit-all, second sight: (%v, %v), want the censor's (true, 1)", ok, lik)
	}
}

// TestRouterAdmitFallsBackOnBadResponseShape: a response with the wrong
// row count is a desynchronized stream — the shard fails over and the
// row is answered by the fallback.
func TestRouterAdmitFallsBackOnBadResponseShape(t *testing.T) {
	reg := obs.NewRegistry()
	r := stubRouter(t, Config{Obs: reg, ProbeEvery: 1 << 30}, &stubConn{padRows: 1, probs: []float64{1, 1}})
	if ok, lik := r.Admit(admitReq(1), 0); ok || lik != 0 {
		t.Errorf("Admit = (%v, %v), want the censor's (false, 0)", ok, lik)
	}
	for name, want := range map[string]int64{"failovers_total": 1, "fallback_rows_total": 1, "rows_total": 0} {
		if got := counterValue(t, reg, "fleet_shard0_"+name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestRouterAdmitAllocFree: Admit's destination is Router-owned, so the
// one-row round trip allocates as little as Enqueue and Flush do.
func TestRouterAdmitAllocFree(t *testing.T) {
	r := stubRouter(t, Config{}, &stubConn{})
	i := 0
	admit := func() {
		r.Admit(trace.Request{Time: int64(i), ID: trace.ObjectID(i % 1024), Size: 1000, Cost: 1}, 1<<30)
		i++
	}
	for i < 4096 { // warm buffers and censor generations
		admit()
	}
	if allocs := testing.AllocsPerRun(1000, admit); allocs != 0 {
		t.Errorf("Admit allocates %v objects per call, want 0", allocs)
	}
}
