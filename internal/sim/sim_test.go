package sim

import (
	"math"
	"testing"

	"lfo/internal/obs"
	"lfo/internal/trace"
)

// admitAll is a trivial test policy: infinite cache, every repeat is a hit.
type admitAll struct {
	seen map[trace.ObjectID]bool
}

func (a *admitAll) Name() string { return "admit-all" }
func (a *admitAll) Request(r trace.Request) bool {
	if a.seen == nil {
		a.seen = make(map[trace.ObjectID]bool)
	}
	hit := a.seen[r.ID]
	a.seen[r.ID] = true
	return hit
}

// neverHit misses everything.
type neverHit struct{}

func (neverHit) Name() string                 { return "never" }
func (neverHit) Request(r trace.Request) bool { return false }

func testTrace() *trace.Trace {
	ids := []trace.ObjectID{1, 2, 1, 3, 2, 1}
	t := &trace.Trace{}
	for i, id := range ids {
		t.Requests = append(t.Requests, trace.Request{Time: int64(i), ID: id, Size: int64(id) * 10, Cost: float64(id) * 10})
	}
	return t
}

func TestRunBasicMetrics(t *testing.T) {
	m := Run(testTrace(), &admitAll{}, Options{})
	// Hits: 1@2, 2@4, 1@5 -> 3 hits of sizes 10, 20, 10.
	if m.Requests != 6 || m.Hits != 3 {
		t.Errorf("Requests,Hits = %d,%d, want 6,3", m.Requests, m.Hits)
	}
	if m.HitBytes != 40 {
		t.Errorf("HitBytes = %d, want 40", m.HitBytes)
	}
	wantReqBytes := int64(10 + 20 + 10 + 30 + 20 + 10)
	if m.ReqBytes != wantReqBytes {
		t.Errorf("ReqBytes = %d, want %d", m.ReqBytes, wantReqBytes)
	}
	if got := m.BHR(); got != 40.0/float64(wantReqBytes) {
		t.Errorf("BHR = %g", got)
	}
	if got := m.OHR(); got != 0.5 {
		t.Errorf("OHR = %g, want 0.5", got)
	}
	// Misses: 1,2,3 first requests -> cost 10+20+30.
	if m.MissCost != 60 {
		t.Errorf("MissCost = %g, want 60", m.MissCost)
	}
	// A policy that never hits pays for every request.
	never := Run(testTrace(), neverHit{}, Options{})
	if never.Policy != "never" || never.Hits != 0 || never.MissCost != 100 {
		t.Errorf("never-hit policy: %s, %d hits, MissCost %g; want never, 0, 100", never.Policy, never.Hits, never.MissCost)
	}
}

func TestRunWarmupExcluded(t *testing.T) {
	m := Run(testTrace(), &admitAll{}, Options{Warmup: 2})
	if m.Requests != 4 {
		t.Errorf("Requests = %d, want 4", m.Requests)
	}
	// Hits after warmup: requests 2,4,5 -> all three hits counted.
	if m.Hits != 3 {
		t.Errorf("Hits = %d, want 3", m.Hits)
	}
}

func TestRunWindows(t *testing.T) {
	m := Run(testTrace(), &admitAll{}, Options{WindowSize: 2})
	if len(m.Windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(m.Windows))
	}
	if m.Windows[0].Hits != 0 || m.Windows[1].Hits != 1 || m.Windows[2].Hits != 2 {
		t.Errorf("window hits = %d,%d,%d, want 0,1,2", m.Windows[0].Hits, m.Windows[1].Hits, m.Windows[2].Hits)
	}
	total := 0
	for _, w := range m.Windows {
		total += w.Requests
	}
	if total != m.Requests {
		t.Errorf("window requests sum %d != %d", total, m.Requests)
	}
	if m.Windows[1].OHR() != 0.5 {
		t.Errorf("window 1 OHR = %g, want 0.5", m.Windows[1].OHR())
	}
}

func TestRunWindowsWithWarmupAndMissCost(t *testing.T) {
	// 10 requests; odd object IDs repeat so admitAll alternates miss/hit:
	// ids 1..5 each requested twice, first = miss (cost), second = hit.
	tr := &trace.Trace{}
	for i := 0; i < 10; i++ {
		id := trace.ObjectID(i/2 + 1)
		tr.Requests = append(tr.Requests, trace.Request{
			Time: int64(i), ID: id, Size: 10, Cost: float64(id),
		})
	}
	m := Run(tr, &admitAll{}, Options{Warmup: 3, WindowSize: 3})

	// 7 measured requests in windows of 3: starts at 3, 6, 9; the last
	// window is partial (1 request).
	if len(m.Windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(m.Windows))
	}
	for i, wantStart := range []int{3, 6, 9} {
		if m.Windows[i].Start != wantStart {
			t.Errorf("window %d Start = %d, want %d", i, m.Windows[i].Start, wantStart)
		}
	}
	if m.Windows[0].Requests != 3 || m.Windows[1].Requests != 3 || m.Windows[2].Requests != 1 {
		t.Errorf("window requests = %d,%d,%d, want 3,3,1",
			m.Windows[0].Requests, m.Windows[1].Requests, m.Windows[2].Requests)
	}

	// Request i misses iff i is even (first touch of its object), costing
	// id = i/2+1. Measured misses: i=4 (cost 3), i=6 (cost 4), i=8
	// (cost 5) -> windows [3,6): 3, [6,9): 4+5, [9,10): 0.
	wantWindowCosts := []float64{3, 9, 0}
	var sum float64
	for i, w := range m.Windows {
		if w.MissCost != wantWindowCosts[i] {
			t.Errorf("window %d MissCost = %g, want %g", i, w.MissCost, wantWindowCosts[i])
		}
		sum += w.MissCost
	}
	// Per-window miss costs must partition the run total (warmup covers
	// the full first windowed request range here, so totals align).
	if sum != m.MissCost {
		t.Errorf("window MissCost sum %g != total %g", sum, m.MissCost)
	}
	// Hits after warmup: i=3,5,7,9 (odd = second touch).
	if m.Hits != 4 || m.Requests != 7 {
		t.Errorf("Hits,Requests = %d,%d, want 4,7", m.Hits, m.Requests)
	}
}

func TestRunRecordsObsTotals(t *testing.T) {
	reg := obs.NewRegistry()
	m := Run(testTrace(), &admitAll{}, Options{Obs: reg})
	checks := []struct {
		name string
		want int64
	}{
		{"sim_runs_total", 1},
		{"sim_requests_total", int64(m.Requests)},
		{"sim_hits_total", int64(m.Hits)},
		{"sim_req_bytes_total", m.ReqBytes},
		{"sim_hit_bytes_total", m.HitBytes},
	}
	for _, c := range checks {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	// A second run accumulates.
	Run(testTrace(), &admitAll{}, Options{Obs: reg})
	if got := reg.Counter("sim_runs_total").Value(); got != 2 {
		t.Errorf("sim_runs_total after second run = %d, want 2", got)
	}
}

func TestMetricsZeroSafe(t *testing.T) {
	m := &Metrics{}
	if m.BHR() != 0 || m.OHR() != 0 {
		t.Error("zero metrics not zero")
	}
	w := &WindowMetrics{}
	if w.BHR() != 0 || w.OHR() != 0 {
		t.Error("zero window metrics not zero")
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore[int](100)
	if s.Capacity() != 100 || s.Used() != 0 || s.Free() != 100 {
		t.Fatal("fresh store wrong")
	}
	e := s.Add(1, 30)
	e.Payload = 7
	if s.Used() != 30 || s.Free() != 70 || s.Len() != 1 {
		t.Errorf("after add: used=%d free=%d len=%d", s.Used(), s.Free(), s.Len())
	}
	if !s.Has(1) || s.Has(2) {
		t.Error("Has wrong")
	}
	if got := s.Get(1); got == nil || got.Payload != 7 || got.Size != 30 {
		t.Errorf("Get = %+v", got)
	}
	if !s.Fits(70) || s.Fits(71) {
		t.Error("Fits wrong")
	}
	s.Remove(1)
	if s.Used() != 0 || s.Len() != 0 || s.Has(1) {
		t.Error("after remove: store not empty")
	}
}

func TestStorePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"zero capacity", func() { NewStore[int](0) }},
		{"double add", func() {
			s := NewStore[int](100)
			s.Add(1, 10)
			s.Add(1, 10)
		}},
		{"oversized add", func() {
			s := NewStore[int](100)
			s.Add(1, 101)
		}},
		{"unknown remove", func() {
			s := NewStore[int](100)
			s.Remove(9)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.f()
		})
	}
}

// TestResolveCutoff pins the one reading of an admission cutoff that
// core.New, fleet.NewRouter and tiered.NewModelAdmitter share.
func TestResolveCutoff(t *testing.T) {
	for in, want := range map[float64]float64{0: 0.5, CutoffAdmitAll: 0, 0.25: 0.25, 1: 1} {
		got, err := ResolveCutoff(in)
		if err != nil || got != want {
			t.Errorf("ResolveCutoff(%v) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []float64{-0.3, -2, 1.5, math.NaN()} {
		if _, err := ResolveCutoff(bad); err == nil {
			t.Errorf("ResolveCutoff(%v) accepted, want an error", bad)
		}
	}
}
