package faultnet

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// scheduleFor returns a schedule whose very first decision for (conn 0,
// op, index 0) is the wanted action, found by scanning seeds. Scanning is
// deterministic, so tests stay reproducible.
func scheduleFor(t *testing.T, cfg Config, op Op, want Action) *Schedule {
	t.Helper()
	for seed := uint64(0); seed < 10000; seed++ {
		cfg.Seed = seed
		s := NewSchedule(cfg)
		if s.Decide(0, op, 0).Action == want {
			return s
		}
	}
	t.Fatalf("no seed in range produces %v for op %v", want, op)
	return nil
}

func TestDecideDeterministicAndPure(t *testing.T) {
	cfg := Config{Seed: 42, ShortRead: 100, StallRead: 100, DropRead: 100, ShortWrite: 150, DropWrite: 150}
	a, b := NewSchedule(cfg), NewSchedule(cfg)
	for conn := int64(0); conn < 4; conn++ {
		for _, op := range []Op{OpRead, OpWrite, OpAccept} {
			for idx := int64(0); idx < 200; idx++ {
				d1, d2 := a.Decide(conn, op, idx), b.Decide(conn, op, idx)
				if d1 != d2 {
					t.Fatalf("conn %d op %v idx %d: %v != %v", conn, op, idx, d1, d2)
				}
			}
		}
	}
	// Decide mutates nothing: stats stay zero without injection.
	if got := a.Stats(); got != (Stats{}) {
		t.Errorf("Decide changed stats: %+v", got)
	}
}

func TestDecideMixesActions(t *testing.T) {
	s := NewSchedule(Config{Seed: 7, ShortRead: 200, StallRead: 200, DropRead: 200})
	seen := map[Action]int{}
	for idx := int64(0); idx < 1000; idx++ {
		seen[s.Decide(0, OpRead, idx).Action]++
	}
	for _, a := range []Action{Pass, Short, Stall, Drop} {
		if seen[a] == 0 {
			t.Errorf("action %v never decided in 1000 ops (%v)", a, seen)
		}
	}
}

// pipeConn returns a wrapped client-side pipe end plus the raw server end.
func pipeConn(s *Schedule) (*Conn, net.Conn) {
	a, b := net.Pipe()
	return WrapConn(a, s, 0), b
}

func TestShortReadDeliversPrefix(t *testing.T) {
	s := scheduleFor(t, Config{ShortRead: 1000, MaxShort: 2}, OpRead, Short)
	c, peer := pipeConn(s)
	defer c.Close()
	defer peer.Close()
	go func() {
		_, _ = peer.Write([]byte("abcdefgh"))
	}()
	buf := make([]byte, 8)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n > 2 {
		t.Errorf("short read returned %d bytes, want 1..2", n)
	}
	if s.Stats().ShortReads != 1 {
		t.Errorf("ShortReads = %d, want 1", s.Stats().ShortReads)
	}
}

func TestShortWriteDesyncsStream(t *testing.T) {
	s := scheduleFor(t, Config{ShortWrite: 1000, MaxShort: 3}, OpWrite, Short)
	c, peer := pipeConn(s)
	defer c.Close()
	defer peer.Close()
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 16)
		n, _ := peer.Read(buf)
		got <- buf[:n]
	}()
	n, err := c.Write([]byte("abcdefgh"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short write err = %v, want ErrInjected", err)
	}
	if n == 0 || n > 3 {
		t.Errorf("short write wrote %d bytes, want 1..3", n)
	}
	if delivered := <-got; len(delivered) != n {
		t.Errorf("peer saw %d bytes, writer reported %d", len(delivered), n)
	}
	if s.Stats().ShortWrites != 1 {
		t.Errorf("ShortWrites = %d, want 1", s.Stats().ShortWrites)
	}
}

func TestStallRunsIntoDeadline(t *testing.T) {
	s := scheduleFor(t, Config{StallRead: 1000}, OpRead, Stall)
	c, peer := pipeConn(s)
	defer c.Close()
	defer peer.Close()
	if err := c.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Read(make([]byte, 4))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled read err = %v, want os.ErrDeadlineExceeded", err)
	}
	if s.Stats().StallReads != 1 {
		t.Errorf("StallReads = %d, want 1", s.Stats().StallReads)
	}
}

func TestStallWithoutDeadlineUnblocksOnClose(t *testing.T) {
	s := scheduleFor(t, Config{StallRead: 1000}, OpRead, Stall)
	c, peer := pipeConn(s)
	defer peer.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 4))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("stalled read err = %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled read never unblocked after Close")
	}
}

// TestCountedStallIgnoresLaterDeadline: once Stats counts a stall, its
// deadline is fixed; a deadline set afterwards — a server's drain
// wake-up — does not end it. A test that waits for the count and then
// sets one relies on this (the server's TestCloseForceClosesStuckConns).
func TestCountedStallIgnoresLaterDeadline(t *testing.T) {
	s := scheduleFor(t, Config{StallRead: 1000}, OpRead, Stall)
	c, peer := pipeConn(s)
	defer peer.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 4))
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); s.Stats().StallReads == 0; {
		if time.Now().After(deadline) {
			t.Fatal("read never stalled")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.SetReadDeadline(time.Now()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("a counted stall ended at a deadline set after it: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, net.ErrClosed) {
		t.Errorf("stalled read err = %v, want net.ErrClosed", err)
	}
}

func TestDropClosesConn(t *testing.T) {
	s := scheduleFor(t, Config{DropRead: 1000}, OpRead, Drop)
	c, peer := pipeConn(s)
	defer peer.Close()
	if _, err := c.Read(make([]byte, 4)); !errors.Is(err, ErrInjected) {
		t.Fatalf("dropped read err = %v, want ErrInjected", err)
	}
	// The peer must observe the close (a read on a pipe whose remote end
	// closed returns immediately).
	if _, err := peer.Read(make([]byte, 4)); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("peer read after drop = %v, want EOF/closed", err)
	}
	if s.Stats().DropReads != 1 {
		t.Errorf("DropReads = %d, want 1", s.Stats().DropReads)
	}
}

func TestPassThroughRoundTrip(t *testing.T) {
	s := NewSchedule(Config{}) // zero rates: everything passes
	a, b := net.Pipe()
	ca, cb := WrapConn(a, s, 0), WrapConn(b, s, 1)
	defer ca.Close()
	defer cb.Close()
	go func() {
		_, _ = ca.Write([]byte("hello"))
	}()
	buf := make([]byte, 5)
	if _, err := io.ReadFull(cb, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Errorf("round trip got %q", buf)
	}
	if got := s.Stats(); got != (Stats{}) {
		t.Errorf("pass-through injected faults: %+v", got)
	}
}

func TestListenerInjectsTransientAcceptErrors(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := scheduleFor(t, Config{AcceptError: 1000}, OpAccept, Reject)
	s.cfg.AcceptError = 500 // past the forced first reject, mix errors and passes
	ln := Wrap(raw, s)
	defer ln.Close()

	go func() {
		c, err := net.Dial("tcp", raw.Addr().String())
		if err == nil {
			defer c.Close()
			_, _ = c.Write([]byte("x"))
		}
	}()

	sawErr := false
	for i := 0; i < 50; i++ {
		c, err := ln.Accept()
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Temporary() { //lint:ignore SA1019 transientness is the property under test
				t.Fatalf("injected accept error not transient: %v", err)
			}
			sawErr = true
			continue
		}
		// The queued connection survived the rejected accepts.
		buf := make([]byte, 1)
		if err := c.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatalf("accepted conn read: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		break
	}
	if !sawErr {
		t.Error("no accept error injected at 50%+ rate")
	}
	if s.Stats().AcceptErrors == 0 {
		t.Error("AcceptErrors not counted")
	}
}

func TestStatsMatchReplayedSchedule(t *testing.T) {
	// Drive a deterministic op sequence through a conn and check Stats
	// equals a pure replay of Decide over the same keys.
	cfg := Config{Seed: 99, ShortWrite: 300, DropWrite: 200, MaxShort: 4}
	s := NewSchedule(cfg)
	a, b := net.Pipe()
	defer b.Close()
	c := WrapConn(a, s, 0)
	go func() {
		_, _ = io.Copy(io.Discard, b)
	}()
	const ops = 40
	for i := 0; i < ops; i++ {
		// Keep writing through injected errors: the schedule consults
		// (conn, op, index) regardless, so every op has a decision.
		_, _ = c.Write([]byte("payload"))
	}
	// Replay the schedule over the same keys with pure Decide calls.
	replay := NewSchedule(cfg)
	var want Stats
	for i := int64(0); i < ops; i++ {
		switch replay.Decide(0, OpWrite, i).Action {
		case Short:
			want.ShortWrites++
		case Drop:
			want.DropWrites++
		}
	}
	if got := s.Stats(); got != want {
		t.Errorf("stats %+v != replayed schedule %+v", got, want)
	}
}

// TestPipeListener: a Dial returns once Accept holds the other end, the
// two ends carry bytes, and Close fails waiting and later Accept and Dial
// calls with net.ErrClosed.
func TestPipeListener(t *testing.T) {
	l := NewPipeListener()
	if a := l.Addr(); a.Network() != "pipe" || a.String() != "pipe" {
		t.Errorf("Addr = %s/%s", a.Network(), a.String())
	}
	accepted := make(chan net.Conn)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	client, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	go func() {
		_, _ = client.Write([]byte("ping"))
	}()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(srv, buf); err != nil || string(buf) != "ping" {
		t.Errorf("server end read %q, %v", buf, err)
	}
	_ = client.Close()
	_ = srv.Close()

	waiting := make(chan error)
	go func() {
		_, err := l.Accept()
		waiting <- err
	}()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-waiting; !errors.Is(err, net.ErrClosed) {
		t.Errorf("Accept waiting at Close returned %v", err)
	}
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Accept after Close returned %v", err)
	}
	if _, err := l.Dial(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Dial after Close returned %v", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
