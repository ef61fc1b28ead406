package server

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"lfo/internal/features"
	"lfo/internal/gbdt"
)

// dialMux connects a MuxConn to a test server.
func dialMux(t *testing.T, addr string) *MuxConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMuxConn(conn)
	t.Cleanup(func() { _ = mc.Close() })
	return mc
}

// randAdmitBatch builds n deterministic pseudo-random admit tuples.
func randAdmitBatch(rng *rand.Rand, n int) []AdmitRequest {
	reqs := make([]AdmitRequest, n)
	for i := range reqs {
		reqs[i] = AdmitRequest{
			Time: rng.Int63n(1 << 40),
			ID:   rng.Uint64() % 4096,
			Size: 1 + rng.Int63n(1<<20),
			Cost: rng.Float64() * 10,
			Free: rng.Int63n(1 << 30),
		}
	}
	return reqs
}

// scriptConn is a connection whose peer is a script: reads come from r,
// writes are kept in w.
type scriptConn struct {
	net.Conn // nil: only the methods below are ever called
	r        io.Reader
	w        bytes.Buffer
	closed   bool
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c *scriptConn) Close() error                { c.closed = true; return nil }
func (c *scriptConn) SetDeadline(time.Time) error { return nil }

// TestMuxPipelinedPredict keeps several predict batches in flight on one
// connection and checks that replies come back in order, under their
// tags, and numerically identical to a local PredictMatrix call.
func TestMuxPipelinedPredict(t *testing.T) {
	m := testModel(t)
	_, addr := startServer(t, m)
	mc := dialMux(t, addr)

	const batches, rows = 6, 17
	all := make([][]float64, batches)
	for b := range all {
		all[b] = randRows(rows, int64(7+b))
	}
	// Write every batch before reading anything: all six are in flight.
	for b, rowsBuf := range all {
		mc.wbuf = appendPredict(mc.wbuf[:0], uint64(100+b), rowsBuf)
		if err := mc.send(); err != nil {
			t.Fatalf("write batch %d: %v", b, err)
		}
	}
	for b, rowsBuf := range all {
		tag, probs, err := mc.ReadResponse()
		if err != nil {
			t.Fatalf("read batch %d: %v", b, err)
		}
		if tag != uint64(100+b) {
			t.Fatalf("batch %d: tag %d, want %d", b, tag, 100+b)
		}
		want := make([]float64, rows)
		m.PredictMatrix(rowsBuf, want, 1)
		for i := range want {
			if probs[i] != want[i] {
				t.Fatalf("batch %d row %d: prob %v, want %v", b, i, probs[i], want[i])
			}
		}
	}
}

// TestClientMatchesMuxConn replays the same admit stream through the
// synchronous Client (one connection) and through pipelined MuxConn
// batches (another connection): both per-connection trackers start cold,
// so the replies must be identical row for row.
func TestClientMatchesMuxConn(t *testing.T) {
	m := testModel(t)
	_, addr := startServer(t, m)

	rng := rand.New(rand.NewSource(11))
	const batches, rows = 5, 23
	stream := make([][]AdmitRequest, batches)
	for b := range stream {
		stream[b] = randAdmitBatch(rng, rows)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	syncProbs := make([][]float64, batches)
	for b := range stream {
		probs, err := c.Admit(stream[b])
		if err != nil {
			t.Fatalf("client admit batch %d: %v", b, err)
		}
		syncProbs[b] = probs
	}

	mc := dialMux(t, addr)
	for b := range stream {
		if err := mc.WriteAdmitBatch(uint64(b), stream[b]); err != nil {
			t.Fatalf("mux write batch %d: %v", b, err)
		}
	}
	for b := range stream {
		tag, probs, err := mc.ReadResponse()
		if err != nil {
			t.Fatalf("mux read batch %d: %v", b, err)
		}
		if tag != uint64(b) || len(probs) != rows {
			t.Fatalf("batch %d: tag %d, %d rows", b, tag, len(probs))
		}
		for i := range probs {
			if probs[i] != syncProbs[b][i] {
				t.Fatalf("batch %d row %d: mux %v, client %v", b, i, probs[i], syncProbs[b][i])
			}
		}
	}
}

// TestMuxErrorCorrelated: an application error comes back under the tag
// of the request it refuses, and the connection remains usable for the
// next batch.
func TestMuxErrorCorrelated(t *testing.T) {
	m := testModel(t)
	_, addr := startServer(t, m)
	mc := dialMux(t, addr)

	// A predict body that is not a whole number of rows.
	mc.wbuf = appendRaw(mc.wbuf[:0], opPredict, 42, []byte{1, 2, 3, 4, 5})
	if err := mc.send(); err != nil {
		t.Fatal(err)
	}
	tag, _, err := mc.ReadResponse()
	if err == nil {
		t.Fatal("ragged predict batch succeeded")
	}
	if tag != 42 {
		t.Fatalf("error under tag %d, want 42", tag)
	}
	if !strings.Contains(err.Error(), "remote error") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The stream is still in step: a good batch goes through.
	good := randAdmitBatch(rand.New(rand.NewSource(3)), 4)
	if err := mc.WriteAdmitBatch(43, good); err != nil {
		t.Fatal(err)
	}
	tag, probs, err := mc.ReadResponse()
	if err != nil || tag != 43 || len(probs) != 4 {
		t.Fatalf("post-error batch: tag=%d len=%d err=%v", tag, len(probs), err)
	}
}

// TestClientRejectsMisTaggedReply: a reply under another request's tag is
// a desynchronized stream, not an answer — the call fails, the client
// drops the connection, and the next call fails without dialling again.
func TestClientRejectsMisTaggedReply(t *testing.T) {
	// Whatever it is asked, the peer answers the tag of the first call.
	reply := appendPredict(nil, 1, []float64{0.5})
	sc := &scriptConn{r: bytes.NewReader(append(reply, reply...))}
	c := newClient(sc)
	one := []AdmitRequest{{Time: 1, ID: 1, Size: 1, Cost: 1}}
	if probs, err := c.Admit(one); err != nil || len(probs) != 1 || probs[0] != 0.5 {
		t.Fatalf("first call: %v, %v", probs, err)
	}
	if _, err := c.Admit(one); err == nil || !strings.Contains(err.Error(), "another request") {
		t.Fatalf("reply under tag 1 to the second call: err %v", err)
	}
	if !sc.closed || c.mc.conn != nil {
		t.Fatal("connection kept after a mis-tagged reply")
	}
	sent := sc.w.Len()
	if _, err := c.Admit(one); !errors.Is(err, errClientClosed) {
		t.Fatalf("third call after the drop: err %v, want %v", err, errClientClosed)
	}
	if sc.w.Len() != sent {
		t.Error("third call wrote to the dropped connection")
	}
}

// TestClientRejectsWrongRowCount: a reply must carry one probability per
// request row. A short or long one is a desynchronized stream, as a
// mis-tagged one is: the call fails, the connection is dropped, and the
// next call fails without dialling again.
func TestClientRejectsWrongRowCount(t *testing.T) {
	two := []AdmitRequest{{Time: 1, ID: 1, Size: 1, Cost: 1}, {Time: 2, ID: 2, Size: 1, Cost: 1}}
	for _, tc := range []struct {
		name  string
		call  func(*Client) ([]float64, error)
		reply []float64
	}{
		{"admit short", func(c *Client) ([]float64, error) { return c.Admit(two) }, []float64{0.5}},
		{"admit long", func(c *Client) ([]float64, error) { return c.Admit(two) }, []float64{0.5, 0.25, 0.125}},
		{"predict short", func(c *Client) ([]float64, error) { return c.Predict(make([]float64, 3*features.Dim)) }, []float64{0.5, 0.25}},
		{"predict long", func(c *Client) ([]float64, error) { return c.Predict(make([]float64, features.Dim)) }, []float64{0.5, 0.25}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The peer answers the first call with the wrong number of
			// probabilities, then would answer the second correctly.
			script := append(appendPredict(nil, 1, tc.reply), appendPredict(nil, 2, []float64{0.5, 0.5})...)
			sc := &scriptConn{r: bytes.NewReader(script)}
			c := newClient(sc)
			if probs, err := tc.call(c); err == nil || !strings.Contains(err.Error(), "probabilities for") {
				t.Fatalf("call answered with %d probabilities: %v, %v", len(tc.reply), probs, err)
			}
			if !sc.closed || c.mc.conn != nil {
				t.Fatal("connection kept after a reply of the wrong length")
			}
			if _, err := tc.call(c); !errors.Is(err, errClientClosed) {
				t.Fatalf("second call after the drop: err %v, want %v", err, errClientClosed)
			}
		})
	}
}

// TestClientLargeReply: Client.Admit reads a reply of more than 1 MiB,
// under the frame bound both ends share. The peer is scripted; the reply
// answers as many requests as it carries probabilities, which in feature
// rows would be a 56 MB request.
func TestClientLargeReply(t *testing.T) {
	want := make([]float64, 1<<20/8+1000)
	for i := range want {
		want[i] = float64(i) / float64(len(want))
	}
	c := newClient(&scriptConn{r: bytes.NewReader(appendPredict(nil, 1, want))})
	probs, err := c.Admit(make([]AdmitRequest, len(want)))
	if err != nil || len(probs) != len(want) || probs[len(want)-1] != want[len(want)-1] {
		t.Fatalf("%d probabilities, err %v", len(probs), err)
	}
}

// testModelBiased trains a second, distinguishable model whose label rule
// differs from testModel's so rollout swaps are observable.
func testModelBiased(t *testing.T) *gbdt.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	ds := gbdt.NewDataset(features.Dim)
	row := make([]float64, features.Dim)
	for i := 0; i < 2000; i++ {
		for j := range row {
			row[j] = rng.Float64() * 100
		}
		label := 0.0
		if row[features.FeatSize] < 30 { // inverted, shifted rule
			label = 1
		}
		ds.Append(row, label)
	}
	p := gbdt.DefaultParams()
	p.NumIterations = 10
	m, err := gbdt.Train(ds, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestModelRolloutSwapsAtomically pushes a versioned model over the wire
// and verifies swap, idempotent re-push, stale rejection, and that
// predictions actually change.
func TestModelRolloutSwapsAtomically(t *testing.T) {
	mA := testModel(t)
	mB := testModelBiased(t)
	srv, addr := startServer(t, mA)

	row := make([]float64, features.Dim)
	for i := range row {
		row[i] = 50
	}
	wantA, wantB := mA.Predict(row), mB.Predict(row)
	if wantA == wantB {
		t.Fatalf("test models agree on the probe row (%v); pick a different row", wantA)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	probe := func() float64 {
		t.Helper()
		probs, err := c.Predict(row)
		if err != nil {
			t.Fatal(err)
		}
		return probs[0]
	}
	if got := probe(); got != wantA {
		t.Fatalf("pre-rollout prediction %v, want %v", got, wantA)
	}

	mc := dialMux(t, addr)
	if err := mc.Rollout(2, mB); err != nil {
		t.Fatalf("rollout v2: %v", err)
	}
	if v := srv.ModelVersion(); v != 2 {
		t.Fatalf("deployed version %d, want 2", v)
	}
	if got := probe(); got != wantB {
		t.Fatalf("post-rollout prediction %v, want %v", got, wantB)
	}
	// Re-pushing the deployed version acks idempotently.
	if err := mc.Rollout(2, mB); err != nil {
		t.Fatalf("idempotent re-push: %v", err)
	}
	// A stale version is rejected and does not swap.
	if err := mc.Rollout(1, mA); err == nil {
		t.Fatal("stale rollout accepted")
	}
	if got := probe(); got != wantB {
		t.Fatalf("stale rollout changed the model: %v", got)
	}
	// Version 0 is reserved.
	if err := mc.Rollout(0, mA); err == nil {
		t.Fatal("version-0 rollout accepted")
	}
}

// BenchmarkClientAdmit is one single-row Client.Admit round trip over
// loopback TCP, client and serving connection in one process, so
// allocs/op counts both ends (testdata/alloc_budgets.txt).
func BenchmarkClientAdmit(b *testing.B) {
	_, addr := startServer(b, testModel(b))
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	one := make([]AdmitRequest, 1)
	admit := func(i int) {
		one[0] = AdmitRequest{Time: int64(i), ID: uint64(i % 1024), Size: 1000, Cost: 1, Free: 1 << 30}
		if _, err := c.Admit(one); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2048; i++ { // warm buffers and the tracker
		admit(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		admit(2048 + i)
	}
}
