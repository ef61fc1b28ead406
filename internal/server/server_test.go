package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/obs"
	"lfo/internal/trace"
)

// testModel trains a small model over features.Dim-wide rows whose label
// depends on the size feature.
func testModel(tb testing.TB) *gbdt.Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	ds := gbdt.NewDataset(features.Dim)
	row := make([]float64, features.Dim)
	for i := 0; i < 2000; i++ {
		for j := range row {
			row[j] = rng.Float64() * 100
		}
		label := 0.0
		if row[features.FeatSize] > 50 {
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

func startServer(tb testing.TB, m *gbdt.Model) (*Server, string) {
	tb.Helper()
	s := New(m, 2)
	s.Logf = tb.Logf
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s, addr.String()
}

func randRows(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]float64, n*features.Dim)
	for i := range rows {
		rows[i] = rng.Float64() * 100
	}
	return rows
}

func TestPredictOverTCPMatchesLocal(t *testing.T) {
	m := testModel(t)
	_, addr := startServer(t, m)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows := randRows(50, 2)
	got, err := c.Predict(rows)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 50)
	m.PredictMatrix(rows, want, 1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: remote %g != local %g", i, got[i], want[i])
		}
	}
}

func TestPredictEmptyBatch(t *testing.T) {
	_, addr := startServer(t, testModel(t))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Predict(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty predict returned %d rows", len(got))
	}
}

func TestPredictBadDim(t *testing.T) {
	_, addr := startServer(t, testModel(t))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Predict(make([]float64, features.Dim+1)); err == nil {
		t.Error("bad row length accepted")
	}
}

func TestServerNoModel(t *testing.T) {
	s, addr := startServer(t, nil)
	_ = s
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Predict(randRows(1, 3))
	if err == nil || !strings.Contains(err.Error(), "no model") {
		t.Errorf("want remote no-model error, got %v", err)
	}
}

func TestModelSwapMidConnection(t *testing.T) {
	m1 := testModel(t)
	s, addr := startServer(t, m1)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows := randRows(10, 4)
	before, err := c.Predict(rows)
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a trivially different model (base score only).
	swapped := &gbdt.Model{Dim: features.Dim, BaseScore: 3}
	if err := swapped.Compile(); err != nil {
		t.Fatal(err)
	}
	s.SetModel(swapped)
	after, err := c.Predict(rows)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
		}
	}
	if same {
		t.Error("model swap had no effect")
	}
	wantP := 1 / (1 + math.Exp(-3.0))
	if math.Abs(after[0]-wantP) > 1e-12 {
		t.Errorf("after swap, p = %g, want %g", after[0], wantP)
	}
}

func TestConcurrentClients(t *testing.T) {
	m := testModel(t)
	_, addr := startServer(t, m)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rows := randRows(20, seed)
			want := make([]float64, 20)
			m.PredictMatrix(rows, want, 1)
			for round := 0; round < 20; round++ {
				got, err := c.Predict(rows)
				if err != nil {
					errs <- err
					return
				}
				for j := range want {
					if got[j] != want[j] {
						errs <- err
						return
					}
				}
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAdmitProtocolMatchesLocalTracking: the compact opAdmit path must
// produce exactly the probabilities a local tracker + model would.
func TestAdmitProtocolMatchesLocalTracking(t *testing.T) {
	m := testModel(t)
	_, addr := startServer(t, m)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A little request stream with repeats so gap features kick in.
	var reqs []AdmitRequest
	for i := 0; i < 60; i++ {
		reqs = append(reqs, AdmitRequest{
			Time: int64(i * 3),
			ID:   uint64(i % 7),
			Size: int64(100 + i%5*50),
			Cost: float64(100 + i%5*50),
			Free: int64(1 << 20),
		})
	}
	got, err := c.Admit(reqs)
	if err != nil {
		t.Fatal(err)
	}

	tracker := features.NewTracker(0)
	buf := make([]float64, features.Dim)
	for i, ar := range reqs {
		r := traceRequest(ar)
		tracker.Features(r, ar.Free, buf)
		want := m.Predict(buf)
		tracker.Update(r)
		if got[i] != want {
			t.Fatalf("request %d: remote %g != local %g", i, got[i], want)
		}
	}
}

// TestAdmitBatchReusesConnScratch: once a connection has seen a batch of a
// given size, answering another allocates nothing — the decoded requests,
// the feature matrix, the probabilities and the reply frame all live in
// its connState — and a smaller batch after a larger one answers with its
// own length.
func TestAdmitBatchReusesConnScratch(t *testing.T) {
	s := New(testModel(t), 1)
	batch := func(n int) frame {
		reqs := make([]AdmitRequest, n)
		for i := range reqs {
			reqs[i] = AdmitRequest{Time: int64(i), ID: uint64(i % 9), Size: 100, Cost: 100, Free: 1 << 20}
		}
		return frame{op: opAdmit, tag: uint64(n), body: appendAdmit(nil, 0, reqs)[hdrBytes:]}
	}
	var cs connState
	big, small := batch(64), batch(5)
	if probs, err := s.process(&cs, big); err != nil || len(probs) != 64 {
		t.Fatalf("64-row batch: %d probabilities, err %v", len(probs), err)
	}
	if probs, err := s.process(&cs, small); err != nil || len(probs) != 5 {
		t.Fatalf("5-row batch after a 64-row one: %d probabilities, err %v", len(probs), err)
	}
	if n := testing.AllocsPerRun(20, func() {
		cs.wbuf = s.respond(&cs, big, cs.wbuf[:0])
	}); n != 0 {
		t.Errorf("a warm 64-row admit batch allocates %v times, want 0", n)
	}
	if len(cs.wbuf) != hdrBytes+8*64 || cs.wbuf[4] != opPredict {
		t.Errorf("reply of %d bytes, op %#x", len(cs.wbuf), cs.wbuf[4])
	}
}

// TestAdmitSessionsIsolated: two connections must not share tracker state.
func TestAdmitSessionsIsolated(t *testing.T) {
	m := testModel(t)
	_, addr := startServer(t, m)
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	warm := []AdmitRequest{
		{Time: 0, ID: 42, Size: 100, Cost: 100, Free: 1000},
		{Time: 10, ID: 42, Size: 100, Cost: 100, Free: 1000},
	}
	if _, err := c1.Admit(warm); err != nil {
		t.Fatal(err)
	}
	// On c1 object 42 now has history; on c2 it must look brand new.
	probe := []AdmitRequest{{Time: 20, ID: 42, Size: 100, Cost: 100, Free: 1000}}
	p1, err := c1.Admit(probe)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c2.Admit(probe)
	if err != nil {
		t.Fatal(err)
	}
	// Compute the expected cold prediction locally.
	tracker := features.NewTracker(0)
	buf := make([]float64, features.Dim)
	tracker.Features(traceRequest(probe[0]), probe[0].Free, buf)
	cold := m.Predict(buf)
	if p2[0] != cold {
		t.Errorf("fresh connection prediction %g != cold %g", p2[0], cold)
	}
	if p1[0] == p2[0] {
		t.Log("note: warm and cold predictions coincide on this model (weak but not wrong)")
	}
}

func traceRequest(ar AdmitRequest) trace.Request {
	return trace.Request{Time: ar.Time, ID: trace.ObjectID(ar.ID), Size: ar.Size, Cost: ar.Cost}
}

// waitForIdleConns blocks until the server has no tracked connections
// (handlers observed the disconnect) or the deadline passes.
func waitForIdleConns(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("server connections never drained")
}

// TestClientDisconnectNotLogged: a client going away — cleanly between
// frames (io.EOF) or mid-frame (io.ErrUnexpectedEOF, possibly wrapped) —
// is benign and must not reach Logf. Regression for the string-compare
// EOF detection that missed wrapped and mid-frame EOFs.
func TestClientDisconnectNotLogged(t *testing.T) {
	m := testModel(t)
	s := New(m, 1)
	var mu sync.Mutex
	var logged []string
	s.Logf = func(format string, args ...interface{}) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// Clean disconnect: connect, send nothing, close (io.EOF).
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}

	// Mid-frame disconnect: send a length header claiming more bytes
	// than we deliver, then close (io.ErrUnexpectedEOF inside the frame).
	conn, err = net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{100, 0, 0, 0, opPredict}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}

	// Header-truncating disconnect: close after half the length prefix.
	conn, err = net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{100, 0}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}

	waitForIdleConns(t, s)
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 0 {
		t.Errorf("benign disconnects were logged: %q", logged)
	}
}

func TestTrackerBoundMapping(t *testing.T) {
	// Every "0 = default, negative = disabled" knob resolves through knob:
	// a knob set to 0, 5 and -1 reads as its default, 5 and its off value.
	for _, tc := range []struct {
		name     string
		get      func(v int) int64
		def, off int64
	}{
		{"MaxTrackedObjects", func(v int) int64 { return int64((&Server{MaxTrackedObjects: v}).trackerBound()) }, 1 << 22, 0},
		{"ReadTimeout", func(v int) int64 { return int64((&Server{ReadTimeout: time.Duration(v)}).readTimeout()) }, int64(DefaultReadTimeout), 0},
		{"WriteTimeout", func(v int) int64 { return int64((&Server{WriteTimeout: time.Duration(v)}).writeTimeout()) }, int64(DefaultWriteTimeout), 0},
		{"DrainTimeout", func(v int) int64 { return int64((&Server{DrainTimeout: time.Duration(v)}).drainTimeout()) }, int64(DefaultDrainTimeout), 0},
		{"MaxFramePayload", func(v int) int64 { return int64((&Server{MaxFramePayload: v}).maxFrame()) }, maxFramePayload, math.MaxUint32},
		{"MaxConns", func(v int) int64 { return int64((&Server{MaxConns: v}).maxConns()) }, DefaultMaxConns, 0},
	} {
		for _, c := range []struct {
			v    int
			want int64
		}{{0, tc.def}, {5, 5}, {-1, tc.off}} {
			if got := tc.get(c.v); got != c.want {
				t.Errorf("%s = %d resolves to %d, want %d", tc.name, c.v, got, c.want)
			}
		}
	}
}

// TestMaxTrackedObjectsBoundsAdmitTracker: with a small bound configured,
// the server's per-connection tracker must behave exactly like a local
// tracker constructed with the same bound (evictions included).
func TestMaxTrackedObjectsBoundsAdmitTracker(t *testing.T) {
	m := testModel(t)
	const bound = 3
	s := New(m, 1)
	s.Logf = t.Logf
	s.MaxTrackedObjects = bound
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Many more distinct objects than the bound, with revisits, so the
	// bounded tracker's evictions shape the features.
	var reqs []AdmitRequest
	for i := 0; i < 80; i++ {
		reqs = append(reqs, AdmitRequest{
			Time: int64(i * 2),
			ID:   uint64(i % 11),
			Size: int64(100 + i%4*25),
			Cost: float64(100 + i%4*25),
			Free: 1 << 20,
		})
	}
	got, err := c.Admit(reqs)
	if err != nil {
		t.Fatal(err)
	}
	tracker := features.NewTracker(bound)
	buf := make([]float64, features.Dim)
	for i, ar := range reqs {
		r := traceRequest(ar)
		tracker.Features(r, ar.Free, buf)
		want := m.Predict(buf)
		tracker.Update(r)
		if got[i] != want {
			t.Fatalf("request %d: remote %g != bounded-local %g", i, got[i], want)
		}
	}
}

// TestDebugEndpointsServeLiveCounts is the curl-free smoke test: a debug
// listener serves /metrics, /debug/vars, and /debug/pprof/ with live
// counter values after one Predict and one Admit round-trip.
func TestDebugEndpointsServeLiveCounts(t *testing.T) {
	m := testModel(t)
	reg := obs.NewRegistry()
	s := New(m, 1)
	s.Logf = t.Logf
	s.Obs = reg
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	dbgAddr, stop, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := stop(); err != nil {
			t.Errorf("debug listener close: %v", err)
		}
	})

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Predict(randRows(4, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit([]AdmitRequest{{Time: 1, ID: 8, Size: 64, Cost: 64, Free: 1 << 20}}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (string, int) {
		t.Helper()
		resp, err := http.Get("http://" + dbgAddr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return string(body), resp.StatusCode
	}

	// /metrics: flat "name value" text with the live counts.
	metrics, code := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"server_predict_requests_total 1",
		"server_admit_requests_total 1",
		"server_predict_rows_total 4",
		"server_admit_rows_total 1",
		"server_open_connections 1",
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("/metrics missing %q; got:\n%s", want, metrics)
		}
	}

	// /debug/vars: expvar JSON with the registry under the "lfo" key.
	varsBody, code := get("/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	var vars struct {
		LFO map[string]int64 `json:"lfo"`
	}
	if err := json.Unmarshal([]byte(varsBody), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars.LFO["server_predict_requests_total"] != 1 || vars.LFO["server_admit_requests_total"] != 1 {
		t.Errorf("/debug/vars lfo counters = %v", vars.LFO)
	}

	// /debug/pprof/: the profile index must serve.
	pprofBody, code := get("/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if !strings.Contains(pprofBody, "goroutine") {
		t.Error("/debug/pprof/ index missing profiles")
	}
}

// TestBadRequestCounter: a frame with an unknown opcode is answered with
// an error frame under its tag and counted as a bad request, and the
// connection stays in step.
func TestBadRequestCounter(t *testing.T) {
	m := testModel(t)
	reg := obs.NewRegistry()
	s := New(m, 1)
	s.Logf = t.Logf
	s.Obs = reg
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	mc := dialMux(t, addr.String())
	mc.wbuf = appendRaw(mc.wbuf[:0], 0x7f, 9, []byte{1, 2, 3})
	if err := mc.send(); err != nil {
		t.Fatal(err)
	}
	if tag, _, err := mc.ReadResponse(); tag != 9 || err == nil || !strings.Contains(err.Error(), "unknown opcode") {
		t.Errorf("unknown opcode answered under tag %d with %v", tag, err)
	}
	if got := reg.Counter("server_bad_requests_total").Value(); got != 1 {
		t.Errorf("server_bad_requests_total = %d, want 1", got)
	}
	if err := mc.WriteAdmitBatch(10, randAdmitBatch(rand.New(rand.NewSource(1)), 3)); err != nil {
		t.Fatal(err)
	}
	if tag, probs, err := mc.ReadResponse(); tag != 10 || len(probs) != 3 || err != nil {
		t.Errorf("next batch: tag %d, %d rows, err %v", tag, len(probs), err)
	}
}

// narrowModel is a compiled model of no trees over 2-feature rows: any
// width but features.Dim.
func narrowModel(t *testing.T) *gbdt.Model {
	t.Helper()
	m := &gbdt.Model{Dim: 2, BaseScore: 1}
	if err := m.Compile(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestModelSwapRejectsWrongWidth: a pushed model that does not score
// features.Dim-wide rows is refused with an error frame and counted, and
// the deployed model keeps serving. Acked, it would make the next admit
// panic in the scorer and take the whole process down.
func TestModelSwapRejectsWrongWidth(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(testModel(t), 1)
	s.Logf = t.Logf
	s.Obs = reg
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	mc := dialMux(t, addr.String())
	if err := mc.Rollout(1, narrowModel(t)); err == nil || !strings.Contains(err.Error(), "scores 2 features") {
		t.Fatalf("2-feature model push: %v", err)
	}
	if got := reg.Counter("server_model_swap_rejects_total").Value(); got != 1 || s.ModelVersion() != 0 {
		t.Errorf("server_model_swap_rejects_total = %d, version %d; want 1 and 0", got, s.ModelVersion())
	}
	if err := mc.WriteAdmitBatch(1, randAdmitBatch(rand.New(rand.NewSource(2)), 8)); err != nil {
		t.Fatal(err)
	}
	if _, probs, err := mc.ReadResponse(); err != nil || len(probs) != 8 {
		t.Fatalf("admit after the refused push: %d rows, err %v", len(probs), err)
	}
}

// TestNewPanicsOnWrongWidth: handing the server a model of the wrong width
// in-process is a programming error, caught where it is made rather than
// on the first request.
func TestNewPanicsOnWrongWidth(t *testing.T) {
	narrow := narrowModel(t)
	for name, f := range map[string]func(){
		"New":      func() { New(narrow, 1) },
		"SetModel": func() { New(nil, 1).SetModel(narrow) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "scores 2 features") {
					t.Errorf("%s with a 2-feature model: recovered %v", name, r)
				}
			}()
			f()
		}()
	}
}

// BenchmarkServeAdmitBatch is a served connection handling one 64-row
// tagged admit frame per op: read, decode, Observe, PredictMatrix, encode,
// one write. A MuxConn drives it over loopback TCP and allocates nothing
// itself, so allocs/op is the server's (testdata/alloc_budgets.txt).
func BenchmarkServeAdmitBatch(b *testing.B) {
	_, addr := startServer(b, testModel(b))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	mc := NewMuxConn(conn)
	defer mc.Close()
	batch := randAdmitBatch(rand.New(rand.NewSource(5)), 64)
	serve := func(i int) {
		for j := range batch {
			batch[j].Time = int64(i*len(batch) + j)
		}
		if err := mc.WriteAdmitBatch(uint64(i), batch); err != nil {
			b.Fatal(err)
		}
		if _, _, err := mc.ReadResponse(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // warm buffers and the tracker
		serve(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(64 + i)
	}
}
