package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lfo/internal/faultnet"
	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/obs"
)

// ioCountConn counts the Read and Write calls made on a connection.
type ioCountConn struct {
	net.Conn
	reads, writes *atomic.Int64
}

func (c ioCountConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c ioCountConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// ioCountListener wraps every accepted connection in an ioCountConn that
// adds to the listener's totals.
type ioCountListener struct {
	net.Listener
	reads, writes atomic.Int64
}

func (l *ioCountListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return ioCountConn{conn, &l.reads, &l.writes}, nil
}

// settle waits until c reaches want, for the server goroutine's next call
// to be counted, and returns its value.
func settle(t *testing.T, c *atomic.Int64, want int64) int64 {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.Load() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return c.Load()
}

// pipeServer serves s through an in-memory pipe listener whose accepted
// connections count their I/O, and dials one connection to it. A pipe
// delivers each client Write to one server Read (16 KiB at most), so a
// segment written in one call arrives in one read.
func pipeServer(t *testing.T, s *Server) (net.Conn, *ioCountListener) {
	t.Helper()
	pl := faultnet.NewPipeListener()
	ln := &ioCountListener{Listener: pl}
	s.Logf = t.Logf
	s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	conn, err := pl.Dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, ln
}

// readReplies reads n frames from br under a deadline on conn and returns
// copies of them.
func readReplies(t *testing.T, conn net.Conn, br *bufio.Reader, n int) []frame {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	out := make([]frame, n)
	var buf []byte
	for i := range out {
		f, err := readFrame(br, &buf, maxFramePayload)
		if err != nil {
			t.Fatalf("reply %d of %d: %v", i+1, n, err)
		}
		out[i] = frame{op: f.op, tag: f.tag, body: bytes.Clone(f.body)}
	}
	return out
}

// localProbs scores reqs as a server connection would, on tracker, with m.
func localProbs(tracker *features.Tracker, m *gbdt.Model, reqs []AdmitRequest) []float64 {
	row := make([]float64, features.Dim)
	out := make([]float64, len(reqs))
	for i, ar := range reqs {
		tracker.Features(traceRequest(ar), ar.Free, row)
		tracker.Update(traceRequest(ar))
		out[i] = m.Predict(row)
	}
	return out
}

// TestServerCoalescesBufferedFrames: admit batches, a refused opcode and a
// model push that arrive in one segment are answered in order, each under
// its own tag, in one Write — and the push swaps the model between the
// batches before and after it, as it would one frame at a time.
func TestServerCoalescesBufferedFrames(t *testing.T) {
	mA, mB := testModel(t), testModelBiased(t)
	var model bytes.Buffer
	if err := mB.Save(&model); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(mA, 1)
	s.Obs = reg
	conn, ln := pipeServer(t, s)

	rng := rand.New(rand.NewSource(11))
	batches := make([][]AdmitRequest, 5)
	for i := range batches {
		batches[i] = randAdmitBatch(rng, 4+i)
	}
	var seg []byte
	for i, b := range batches[:3] {
		seg = appendAdmit(seg, uint64(10+i), b)
	}
	seg = appendRaw(seg, 0x7f, 13, nil)
	seg = appendRaw(seg, opModel, 1, model.Bytes())
	for i, b := range batches[3:] {
		seg = appendAdmit(seg, uint64(14+i), b)
	}
	if len(seg) > connBufBytes {
		t.Fatalf("%d-byte segment does not fit one read", len(seg))
	}
	if _, err := conn.Write(seg); err != nil {
		t.Fatal(err)
	}

	got := readReplies(t, conn, bufio.NewReader(conn), 7)
	tracker := features.NewTracker(0)
	want := []struct {
		op    byte
		tag   uint64
		probs []float64
	}{
		{opProbs, 10, localProbs(tracker, mA, batches[0])},
		{opProbs, 11, localProbs(tracker, mA, batches[1])},
		{opProbs, 12, localProbs(tracker, mA, batches[2])},
		{opError, 13, nil},
		{opModel, 1, nil},
		{opProbs, 14, localProbs(tracker, mB, batches[3])},
		{opProbs, 15, localProbs(tracker, mB, batches[4])},
	}
	for i, w := range want {
		f := got[i]
		if f.op != w.op || f.tag != w.tag {
			t.Fatalf("reply %d: op %#x tag %d, want op %#x tag %d", i, f.op, f.tag, w.op, w.tag)
		}
		if w.op != opProbs {
			continue
		}
		probs, err := decodeFloats(f.body, nil)
		if err != nil || len(probs) != len(w.probs) {
			t.Fatalf("reply %d: %d probabilities, err %v", i, len(probs), err)
		}
		for j := range probs {
			if math.Float64bits(probs[j]) != math.Float64bits(w.probs[j]) {
				t.Fatalf("reply %d row %d: %v, want %v", i, j, probs[j], w.probs[j])
			}
		}
	}
	if n := ln.writes.Load(); n != 1 {
		t.Errorf("server made %d Writes for one segment of 7 frames, want 1", n)
	}
	if n := reg.Counter("server_reply_writes_total").Value(); n != 1 {
		t.Errorf("server_reply_writes_total = %d, want 1", n)
	}
	if n := settle(t, &ln.reads, 2); n != 2 { // the segment, then the read that waits for more
		t.Errorf("server made %d Reads, want 2", n)
	}
}

// TestCoalescingStopsAtPartialFrame: a complete frame followed by the
// first half of the next is answered at once; the second reply follows
// its tail.
func TestCoalescingStopsAtPartialFrame(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(testModel(t), 1)
	s.Obs = reg
	conn, _ := pipeServer(t, s)
	br := bufio.NewReader(conn)
	rng := rand.New(rand.NewSource(3))
	first := appendAdmit(nil, 1, randAdmitBatch(rng, 8))
	second := appendAdmit(nil, 2, randAdmitBatch(rng, 8))
	half := len(second) / 2

	if _, err := conn.Write(append(bytes.Clone(first), second[:half]...)); err != nil {
		t.Fatal(err)
	}
	if f := readReplies(t, conn, br, 1)[0]; f.op != opProbs || f.tag != 1 {
		t.Fatalf("first reply op %#x tag %d", f.op, f.tag)
	}
	if _, err := conn.Write(second[half:]); err != nil {
		t.Fatal(err)
	}
	if f := readReplies(t, conn, br, 1)[0]; f.op != opProbs || f.tag != 2 {
		t.Fatalf("second reply op %#x tag %d", f.op, f.tag)
	}
	if n := reg.Counter("server_reply_writes_total").Value(); n != 2 {
		t.Errorf("server_reply_writes_total = %d, want 2", n)
	}
}

// TestPipelinedFramesOneReadEach: frames that arrive one at a time cost
// the server one Read each — header and body together — and one Write.
func TestPipelinedFramesOneReadEach(t *testing.T) {
	s := New(testModel(t), 1)
	conn, ln := pipeServer(t, s)
	mc := NewMuxConn(conn)
	rng := rand.New(rand.NewSource(4))
	const frames = 20
	for i := 0; i < frames; i++ {
		if err := mc.WriteAdmitBatch(uint64(i), randAdmitBatch(rng, 64)); err != nil {
			t.Fatal(err)
		}
		if tag, probs, err := mc.ReadResponse(); err != nil || tag != uint64(i) || len(probs) != 64 {
			t.Fatalf("frame %d: tag %d, %d probabilities, err %v", i, tag, len(probs), err)
		}
	}
	// One Read for each frame, and the one the server waits in.
	if r, w := settle(t, &ln.reads, frames+1), ln.writes.Load(); r != frames+1 || w != frames {
		t.Errorf("server made %d Reads and %d Writes for %d frames, want %d and %d", r, w, frames, frames+1, frames)
	}
}

// TestCoalescedRepliesBeforeReadError: replies to the frames before a
// read error go out, in order, before the connection ends — ahead of the
// goodbye of a frame-limit violation, and before a peer's close.
func TestCoalescedRepliesBeforeReadError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	t.Run("frame_limit", func(t *testing.T) {
		reg := obs.NewRegistry()
		s := New(testModel(t), 1)
		s.Obs = reg
		s.MaxFramePayload = 512
		conn, _ := pipeServer(t, s)
		seg := appendAdmit(nil, 1, randAdmitBatch(rng, 2))
		seg = appendAdmit(seg, 2, randAdmitBatch(rng, 3))
		// An oversized frame that is wholly in the same segment: the
		// server holds both replies when it reads it.
		seg = appendRaw(seg, opAdmit, 3, make([]byte, 40*16))
		go func() { _, _ = conn.Write(seg) }() // the server stops reading at the violation
		got := readReplies(t, conn, bufio.NewReader(conn), 3)
		for i, w := range []struct {
			op  byte
			tag uint64
		}{{opProbs, 1}, {opProbs, 2}, {opError, 0}} {
			if got[i].op != w.op || got[i].tag != w.tag {
				t.Fatalf("reply %d: op %#x tag %d, want op %#x tag %d", i, got[i].op, got[i].tag, w.op, w.tag)
			}
		}
		waitCounter(t, reg.Counter("server_frame_limit_rejects_total"), 1)
		if n := reg.Counter("server_reply_writes_total").Value(); n != 1 {
			t.Errorf("server_reply_writes_total = %d, want 1", n)
		}
	})
	t.Run("peer_close", func(t *testing.T) {
		_, addr := startServer(t, testModel(t))
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var seg []byte
		for tag := uint64(1); tag <= 4; tag++ {
			seg = appendAdmit(seg, tag, randAdmitBatch(rng, 16))
		}
		if _, err := conn.Write(seg); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		for i, f := range readReplies(t, conn, br, 4) {
			if f.op != opProbs || f.tag != uint64(i+1) || len(f.body) != 8*16 {
				t.Fatalf("reply %d: op %#x tag %d, %d bytes", i, f.op, f.tag, len(f.body))
			}
		}
		if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
			t.Errorf("after the last reply: %v, want EOF", err)
		}
	})
}

// drainTrigger is a served connection that starts the server's Close
// right after its first Read, and returns that Read's bytes only once
// Close has woken the connection with its immediate read deadline: the
// frames in them are buffered, unanswered, when the drain begins.
type drainTrigger struct {
	net.Conn
	close          func()
	once, wokeOnce sync.Once
	woke           chan struct{}
}

func (c *drainTrigger) Read(p []byte) (int, error) {
	first := false
	c.once.Do(func() { first = true })
	if !first {
		return c.Conn.Read(p)
	}
	n, err := io.ReadFull(c.Conn, p) // the client sent more than a buffer
	go c.close()
	<-c.woke
	return n, err
}

func (c *drainTrigger) SetReadDeadline(t time.Time) error {
	err := c.Conn.SetReadDeadline(t)
	c.wokeOnce.Do(func() { close(c.woke) }) // the server arms no read deadline: this is Close's
	return err
}

type drainTriggerListener struct {
	net.Listener
	close func()
}

func (l drainTriggerListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &drainTrigger{Conn: conn, close: l.close, woke: make(chan struct{})}, nil
}

// TestCoalescedRepliesAtClose: the complete frames a connection's read
// buffer holds when Close begins are answered — one buffer's worth at
// most — and the connection then ends at its next read, with nothing
// force-closed. The client sent more than a buffer; the frames past it
// are dropped unread.
func TestCoalescedRepliesAtClose(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(testModel(t), 1)
	s.Logf = t.Logf
	s.Obs = reg
	s.ReadTimeout = -1 // the only read deadline is Close's wake-up
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	s.Serve(drainTriggerListener{Listener: tcp, close: func() { closed <- s.Close() }})

	conn, err := net.Dial("tcp", tcp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rng := rand.New(rand.NewSource(6))
	const rows, sent = 64, 10
	var seg []byte
	for tag := uint64(1); tag <= sent; tag++ {
		seg = appendAdmit(seg, tag, randAdmitBatch(rng, rows))
	}
	go func() { _, _ = conn.Write(seg) }() // the server reads only its first buffer
	frameBytes := len(seg) / sent
	buffered := connBufBytes / frameBytes // complete frames in the first read

	br := bufio.NewReader(conn)
	for i, f := range readReplies(t, conn, br, buffered) {
		if f.op != opProbs || f.tag != uint64(i+1) || len(f.body) != 8*rows {
			t.Fatalf("reply %d: op %#x tag %d, %d bytes", i, f.op, f.tag, len(f.body))
		}
	}
	if _, err := br.ReadByte(); err == nil {
		t.Errorf("a reply beyond the %d buffered frames", buffered)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("server_drain_force_closes_total").Value(); n != 0 {
		t.Errorf("server_drain_force_closes_total = %d, want 0", n)
	}
	if n := reg.Counter("server_reply_writes_total").Value(); n != 1 {
		t.Errorf("server_reply_writes_total = %d, want 1", n)
	}
}

// TestMuxClientOneReadPerReply: a Client round trip is one Write and one
// Read on the client's end.
func TestMuxClientOneReadPerReply(t *testing.T) {
	_, addr := startServer(t, testModel(t))
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var reads, writes atomic.Int64
	c := newClient(ioCountConn{raw, &reads, &writes})
	defer c.Close()
	const calls = 20
	for i := 0; i < calls; i++ {
		if _, err := c.Admit([]AdmitRequest{{Time: int64(i), ID: uint64(i % 3), Size: 10, Cost: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if r, w := reads.Load(), writes.Load(); r != calls || w != calls {
		t.Errorf("%d calls made %d Reads and %d Writes, want %d each", calls, r, w, calls)
	}
}

// failConn fails every Write and records the bytes each Write was given.
type failConn struct {
	scriptConn
	fail  bool
	sends [][]byte
}

func (c *failConn) Write(p []byte) (int, error) {
	c.sends = append(c.sends, bytes.Clone(p))
	if c.fail {
		return 0, errors.New("injected write failure")
	}
	return len(p), nil
}

// TestMuxSendLeavesNothingQueued: no send leaves bytes behind for a later
// one to resend — not a rollout (a model frame left queued would go out
// again with the next window, whose reader would take the stale ack), not
// a failed Flush.
func TestMuxSendLeavesNothingQueued(t *testing.T) {
	m := testModel(t)
	ack := appendRaw(nil, opModel, 2, nil)
	fc := &failConn{scriptConn: scriptConn{r: bytes.NewReader(ack)}}
	mc := NewMuxConn(fc)
	if err := mc.Rollout(2, m); err != nil {
		t.Fatal(err)
	}
	batch := []AdmitRequest{{Time: 1, ID: 2, Size: 3, Cost: 4, Free: 5}}
	mc.QueueAdmitBatch(7, batch)
	mc.QueueAdmitBatch(8, batch)
	if err := mc.Flush(); err != nil {
		t.Fatal(err)
	}
	want := appendAdmit(appendAdmit(nil, 7, batch), 8, batch)
	if len(fc.sends) != 2 || !bytes.Equal(fc.sends[1], want) {
		t.Fatalf("the window after a rollout wrote %x, want exactly its two frames %x", fc.sends[len(fc.sends)-1], want)
	}
	if err := mc.Flush(); err != nil || len(fc.sends) != 2 {
		t.Fatalf("an empty Flush wrote (%d Writes, err %v)", len(fc.sends), err)
	}

	fc.fail = true
	if err := mc.WriteAdmitBatch(9, batch); err == nil {
		t.Fatal("failed Write reported no error")
	}
	fc.fail = false
	if err := mc.WriteAdmitBatch(10, batch); err != nil {
		t.Fatal(err)
	}
	if got := fc.sends[len(fc.sends)-1]; !bytes.Equal(got, appendAdmit(nil, 10, batch)) {
		t.Errorf("the write after a failed one carried %d bytes, want only its own frame", len(got))
	}
}
