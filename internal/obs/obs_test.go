package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("reqs") != c {
		t.Error("counter not interned by name")
	}
	g := r.Gauge("conns")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %d, want 2", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", LatencyBounds)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(5)
	sc := Start(h)
	sc.Stop()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles reported nonzero values")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000, 7000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 5+10+11+100+5000+7000 {
		t.Errorf("sum = %d", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	want := []int64{2, 2, 0, 2} // <=10: {5,10}; <=100: {11,100}; <=1000: {}; overflow: {5000,7000}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, hs.Counts[i], w)
		}
	}
	// Re-registration returns the same histogram, ignoring bounds.
	if r.Histogram("lat_ns", []int64{1}) != h {
		t.Error("histogram not interned by name")
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds accepted")
		}
	}()
	NewRegistry().Histogram("bad", []int64{10, 10})
}

func TestSnapshotDeterministicOrderAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Gauge("m_gauge").Set(7)
	r.Histogram("z_ns", []int64{10}).Observe(3)

	var buf strings.Builder
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a_total 1\n" +
		"b_total 2\n" +
		"m_gauge 7\n" +
		"z_ns_count 1\n" +
		"z_ns_le_10 1\n" +
		"z_ns_le_inf 0\n" +
		"z_ns_sum 3\n"
	if buf.String() != want {
		t.Errorf("text:\n%s\nwant:\n%s", buf.String(), want)
	}

	vars := r.Snapshot().Vars()
	if vars["a_total"] != 1 || vars["z_ns_sum"] != 3 {
		t.Errorf("vars map wrong: %v", vars)
	}
}

func TestScopeRecords(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("scope_ns", LatencyBounds)
	sc := Start(h)
	sc.Stop()
	if h.Count() != 1 {
		t.Errorf("scope recorded %d observations, want 1", h.Count())
	}
	if h.Sum() < 0 {
		t.Errorf("negative elapsed %d", h.Sum())
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", LatencyBounds)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

// TestRecordingDoesNotAllocate is the zero-cost guarantee the request
// path depends on: counter/gauge/histogram recording — enabled or nil —
// must not allocate.
func TestRecordingDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", LatencyBounds)
	var nilC *Counter
	var nilH *Histogram
	cases := []struct {
		name string
		f    func()
	}{
		{"counter", func() { c.Inc() }},
		{"gauge", func() { g.Set(1) }},
		{"histogram", func() { h.Observe(12345) }},
		{"scope", func() { Start(h).Stop() }},
		{"nil counter", func() { nilC.Inc() }},
		{"nil scope", func() { Start(nilH).Stop() }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.f); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", LatencyBounds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkScope(b *testing.B) {
	h := NewRegistry().Histogram("h", LatencyBounds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Start(h).Stop()
	}
}

// BenchmarkRequestObs is the per-request observability path a serving
// loop pays — a counter increment plus a latency scope — pinned to 0
// allocs/op by testdata/alloc_budgets.txt (scripts/check.sh).
func BenchmarkRequestObs(b *testing.B) {
	r := NewRegistry()
	reqs := r.Counter("requests")
	lat := r.Histogram("latency", LatencyBounds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs.Inc()
		Start(lat).Stop()
	}
}

// TestPrefixedRegistry: a prefixed view writes into the shared store
// under prefixed names, the same name resolves to the same handle through
// the same view, and distinct prefixes keep distinct handles. Nil safety
// mirrors the base registry.
func TestPrefixedRegistry(t *testing.T) {
	r := NewRegistry()
	s0 := r.Prefixed("shard0_")
	s1 := r.Prefixed("shard1_")

	s0.Counter("server_requests_total").Add(3)
	s1.Counter("server_requests_total").Add(5)
	r.Counter("fleet_rows_total").Add(7)

	if got := r.Counter("shard0_server_requests_total").Value(); got != 3 {
		t.Errorf("shard0 counter via parent = %d, want 3", got)
	}
	if got := s1.Counter("server_requests_total").Value(); got != 5 {
		t.Errorf("shard1 counter = %d, want 5", got)
	}
	if s0.Counter("server_requests_total") == s1.Counter("server_requests_total") {
		t.Error("distinct prefixes resolved to the same counter handle")
	}
	// Nested prefixes compose.
	if r.Prefixed("a_").Prefixed("b_").Gauge("g") != r.Gauge("a_b_g") {
		t.Error("nested prefix did not compose")
	}
	// The parent snapshot sees every view's metrics.
	snap := r.Snapshot()
	want := map[string]int64{
		"shard0_server_requests_total": 3,
		"shard1_server_requests_total": 5,
		"fleet_rows_total":             7,
	}
	seen := make(map[string]int64)
	for _, m := range snap.Counters {
		seen[m.Name] = m.Value
	}
	for name, v := range want {
		if seen[name] != v {
			t.Errorf("snapshot %s = %d, want %d", name, seen[name], v)
		}
	}
	// Nil registry stays nil through Prefixed.
	var nilReg *Registry
	if nilReg.Prefixed("x_") != nil {
		t.Error("nil.Prefixed returned non-nil")
	}
	nilReg.Prefixed("x_").Counter("c").Inc() // must not panic
}
