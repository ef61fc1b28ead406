package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// muxPredictFrame builds a complete length-prefixed mux opPredict frame.
// No client sends one any more, but the server still decodes it.
func muxPredictFrame(id uint64, rows []float64, dim int) []byte {
	return frameBytes(encodeMuxResponse(id, encodePredictRequest(rows, dim)))
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

// TestMuxPipelinedPredict keeps several predict batches in flight on one
// connection and checks that responses come back in order, correlated,
// and numerically identical to a local PredictMatrix call.
func TestMuxPipelinedPredict(t *testing.T) {
	m := testModel(t)
	_, addr := startServer(t, m)
	mc := dialMux(t, addr)

	rng := rand.New(rand.NewSource(7))
	const batches, rows = 6, 17
	all := make([][]float64, batches)
	for b := range all {
		rowsBuf := make([]float64, rows*features.Dim)
		for i := range rowsBuf {
			rowsBuf[i] = rng.Float64() * 100
		}
		all[b] = rowsBuf
	}
	// Write every batch before reading anything: all six are in flight.
	for b, rowsBuf := range all {
		if _, err := mc.conn.Write(muxPredictFrame(uint64(100+b), rowsBuf, features.Dim)); err != nil {
			t.Fatalf("write batch %d: %v", b, err)
		}
	}
	for b, rowsBuf := range all {
		id, probs, err := mc.ReadResponse()
		if err != nil {
			t.Fatalf("read batch %d: %v", b, err)
		}
		if id != uint64(100+b) {
			t.Fatalf("batch %d: correlation ID %d, want %d", b, id, 100+b)
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

// TestMuxAdmitMatchesClassic replays the same admit stream through a
// classic Client (one connection) and through pipelined mux batches
// (another connection): both per-connection trackers start cold, so the
// responses must be identical row for row.
func TestMuxAdmitMatchesClassic(t *testing.T) {
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
	classic := make([][]float64, batches)
	for b := range stream {
		probs, err := c.Admit(stream[b])
		if err != nil {
			t.Fatalf("classic admit batch %d: %v", b, err)
		}
		classic[b] = probs
	}

	mc := dialMux(t, addr)
	for b := range stream {
		if err := mc.WriteAdmitBatch(uint64(b), stream[b]); err != nil {
			t.Fatalf("mux write batch %d: %v", b, err)
		}
	}
	for b := range stream {
		id, probs, err := mc.ReadResponse()
		if err != nil {
			t.Fatalf("mux read batch %d: %v", b, err)
		}
		if id != uint64(b) {
			t.Fatalf("batch %d: correlation ID %d", b, id)
		}
		for i := range probs {
			if probs[i] != classic[b][i] {
				t.Fatalf("batch %d row %d: mux %v, classic %v", b, i, probs[i], classic[b][i])
			}
		}
	}
}

// TestMuxErrorCorrelated: an application error inside a mux envelope
// comes back under the same correlation ID, and the connection remains
// usable for the next batch.
func TestMuxErrorCorrelated(t *testing.T) {
	m := testModel(t)
	_, addr := startServer(t, m)
	mc := dialMux(t, addr)

	// Inner payload with a lying row count: decodable envelope, bad body.
	// encodeMuxResponse builds the same envelope a request uses.
	bad := encodeMuxResponse(42, []byte{opPredict, 0xff, 0xff, 0xff, 0xff})
	if err := writeFrame(muxRawConn(mc), bad); err != nil {
		t.Fatal(err)
	}
	id, _, err := mc.ReadResponse()
	if err == nil {
		t.Fatal("lying predict batch succeeded")
	}
	if id != 42 {
		t.Fatalf("error correlated to ID %d, want 42", id)
	}
	if !strings.Contains(err.Error(), "remote error") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The stream is still in sync: a good batch goes through.
	good := randAdmitBatch(rand.New(rand.NewSource(3)), 4)
	if err := mc.WriteAdmitBatch(43, good); err != nil {
		t.Fatal(err)
	}
	id, probs, err := mc.ReadResponse()
	if err != nil || id != 43 || len(probs) != 4 {
		t.Fatalf("post-error batch: id=%d len=%d err=%v", id, len(probs), err)
	}
}

// muxRawConn exposes the MuxConn's transport for tests that craft frames.
func muxRawConn(mc *MuxConn) net.Conn { return mc.conn }

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

// TestMuxEncodeDecodeIdentity is the codec property test: for seeded
// random batches, encode→decode is the identity for admit requests,
// predict requests, and enveloped responses.
func TestMuxEncodeDecodeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 200; iter++ {
		id := rng.Uint64()
		n := rng.Intn(65)

		// Admit batch.
		reqs := randAdmitBatch(rng, n)
		frame := appendMuxAdmit(nil, id, reqs)
		payload, err := readFrame(bytes.NewReader(frame), maxFramePayload)
		if err != nil {
			t.Fatalf("iter %d: reading appended admit frame: %v", iter, err)
		}
		gotID, inner, err := decodeMux(payload)
		if err != nil || gotID != id {
			t.Fatalf("iter %d: envelope id=%d err=%v", iter, gotID, err)
		}
		gotReqs, err := decodeAdmitRequest(inner, nil)
		if err != nil {
			t.Fatalf("iter %d: inner admit decode: %v", iter, err)
		}
		if len(gotReqs) != len(reqs) {
			t.Fatalf("iter %d: %d rows, want %d", iter, len(gotReqs), len(reqs))
		}
		for i := range reqs {
			if gotReqs[i] != reqs[i] {
				t.Fatalf("iter %d row %d: %+v != %+v", iter, i, gotReqs[i], reqs[i])
			}
		}

		// Predict batch.
		rows := make([]float64, n*features.Dim)
		for i := range rows {
			rows[i] = rng.NormFloat64() * 1000
		}
		frame = muxPredictFrame(id^0x5555, rows, features.Dim)
		payload, err = readFrame(bytes.NewReader(frame), maxFramePayload)
		if err != nil {
			t.Fatalf("iter %d: reading appended predict frame: %v", iter, err)
		}
		gotID, inner, err = decodeMux(payload)
		if err != nil || gotID != id^0x5555 {
			t.Fatalf("iter %d: predict envelope id=%d err=%v", iter, gotID, err)
		}
		gotRows, err := decodePredictRequest(inner, features.Dim)
		if err != nil {
			t.Fatalf("iter %d: inner predict decode: %v", iter, err)
		}
		for i := range rows {
			if gotRows[i] != rows[i] && !(math.IsNaN(gotRows[i]) && math.IsNaN(rows[i])) {
				t.Fatalf("iter %d float %d: %v != %v", iter, i, gotRows[i], rows[i])
			}
		}

		// Enveloped response.
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		resp := encodeMuxResponse(id, encodePredictResponse(probs))
		gotID, inner, err = decodeMux(resp)
		if err != nil || gotID != id {
			t.Fatalf("iter %d: response envelope id=%d err=%v", iter, gotID, err)
		}
		gotProbs, err := decodePredictResponse(inner)
		if err != nil {
			t.Fatalf("iter %d: inner response decode: %v", iter, err)
		}
		for i := range probs {
			if gotProbs[i] != probs[i] {
				t.Fatalf("iter %d prob %d: %v != %v", iter, i, gotProbs[i], probs[i])
			}
		}
	}
}

// FuzzMuxFrameDecode feeds arbitrary bytes through the mux layer: the
// frame reader, the envelope splitter, every inner decoder, and the
// model-swap/ack parsers. Nothing may panic, envelope arithmetic must
// stay consistent, and re-enveloping a decoded payload must round-trip.
func FuzzMuxFrameDecode(f *testing.F) {
	for _, seed := range muxFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data), fuzzFrameMax)
		if err != nil {
			return
		}
		if id, inner, err := decodeMux(payload); err == nil {
			if len(inner)+muxHdrBytes != len(payload) {
				t.Fatalf("envelope arithmetic: %d inner + %d header != %d payload", len(inner), muxHdrBytes, len(payload))
			}
			// Inner decoders must tolerate whatever the envelope carried.
			_, _ = decodePredictRequest(inner, features.Dim)
			_, _ = decodeAdmitRequest(inner, nil)
			_, _ = decodePredictResponse(inner)
			// Round trip: re-enveloping the inner payload reproduces it.
			rt := encodeMuxResponse(id, inner)
			id2, inner2, err2 := decodeMux(rt)
			if err2 != nil || id2 != id || !bytes.Equal(inner2, inner) {
				t.Fatalf("mux re-encode round trip failed: id %d→%d err=%v", id, id2, err2)
			}
		}
		if v, body, err := decodeModelSwap(payload); err == nil {
			if len(body)+muxHdrBytes != len(payload) {
				t.Fatalf("model swap arithmetic broken")
			}
			if v2, err := decodeModelAck(encodeModelAck(v)); err != nil || v2 != v {
				t.Fatalf("model ack round trip: %d→%d err=%v", v, v2, err)
			}
		}
		_, _ = decodeModelAck(payload)
	})
}

// muxFuzzSeeds builds the seed corpus shared by the in-code f.Add calls
// and the committed testdata/fuzz files.
func muxFuzzSeeds() [][]byte {
	admit := appendMuxAdmit(nil, 7, []AdmitRequest{{Time: 1, ID: 2, Size: 3, Cost: 4, Free: 5}})
	predict := muxPredictFrame(9, make([]float64, features.Dim), features.Dim)
	resp := frameBytes(encodeMuxResponse(7, encodePredictResponse([]float64{0.25, 0.75})))
	muxErr := frameBytes(encodeMuxResponse(8, encodeError("remote error text")))
	swap := frameBytes(encodeModelSwap(3, []byte{1, 2, 3, 4}))
	ack := frameBytes(encodeModelAck(3))
	return [][]byte{
		admit,
		predict,
		resp,
		muxErr,
		swap,
		ack,
		// Truncated envelope: opcode but a short correlation ID.
		frameBytes([]byte{opMux, 1, 2, 3}),
		// Envelope with an empty inner payload.
		frameBytes([]byte{opMux, 0, 0, 0, 0, 0, 0, 0, 0}),
		// Envelope wrapping a lying inner row count.
		frameBytes(encodeMuxResponse(5, []byte{opAdmit, 0xff, 0xff, 0xff, 0xff, 1})),
		// Model swap with no body.
		frameBytes([]byte{opModel, 9, 0, 0, 0, 0, 0, 0, 0}),
	}
}

// TestRegenerateMuxFuzzCorpus rewrites the committed FuzzMuxFrameDecode
// seed corpus when LFO_REGEN_CORPUS=1 (mirrors TestRegenerateFuzzCorpus).
func TestRegenerateMuxFuzzCorpus(t *testing.T) {
	if os.Getenv("LFO_REGEN_CORPUS") == "" {
		t.Skip("set LFO_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzMuxFrameDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	names := []string{
		"seed-mux-admit", "seed-mux-predict", "seed-mux-response",
		"seed-mux-error", "seed-model-swap", "seed-model-ack",
		"seed-short-envelope", "seed-empty-inner", "seed-lying-inner",
		"seed-empty-model",
	}
	seeds := muxFuzzSeeds()
	if len(names) != len(seeds) {
		t.Fatalf("%d names for %d seeds", len(names), len(seeds))
	}
	for i, name := range names {
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seeds[i])
		if err := os.WriteFile(filepath.Join(dir, name), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
