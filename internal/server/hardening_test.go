package server

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lfo/internal/faultnet"
	"lfo/internal/features"
	"lfo/internal/obs"
)

// degradeLog collects OnDegrade events (fired from serving goroutines).
type degradeLog struct {
	mu  sync.Mutex
	evs []DegradeEvent
}

func (l *degradeLog) hook() func(DegradeEvent) {
	return func(ev DegradeEvent) {
		l.mu.Lock()
		l.evs = append(l.evs, ev)
		l.mu.Unlock()
	}
}

func (l *degradeLog) kinds() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.evs))
	for i, ev := range l.evs {
		out[i] = ev.Kind
	}
	return out
}

func waitCounter(t *testing.T, c *obs.Counter, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.Value() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counter stuck at %d, want %d", c.Value(), want)
}

// TestReadTimeoutClosesIdleConn: a connection that never sends a frame is
// closed once ReadTimeout elapses, counted and surfaced via OnDegrade.
func TestReadTimeoutClosesIdleConn(t *testing.T) {
	reg := obs.NewRegistry()
	var dl degradeLog
	s := New(testModel(t), 1)
	s.Logf = t.Logf
	s.Obs = reg
	s.ReadTimeout = 50 * time.Millisecond
	s.OnDegrade = dl.hook()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The server must hang up on its own; bound our read just in case.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection not closed by read deadline")
	}
	waitCounter(t, reg.Counter("server_read_timeouts_total"), 1)
	if kinds := dl.kinds(); len(kinds) != 1 || kinds[0] != "read_timeout" {
		t.Errorf("degrade events = %v, want [read_timeout]", kinds)
	}
}

// TestFrameLimitRejects: a frame header over MaxFramePayload gets an
// error frame back and the connection closed (the stream is desynced).
func TestFrameLimitRejects(t *testing.T) {
	reg := obs.NewRegistry()
	var dl degradeLog
	s := New(testModel(t), 1)
	s.Logf = t.Logf
	s.Obs = reg
	s.MaxFramePayload = 1024
	s.OnDegrade = dl.hook()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xff, 0xff, 0x01, 0x00}); err != nil { // claims ~128KiB
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if tag, _, err := NewMuxConn(conn).ReadResponse(); tag != 0 || err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("reject answered under tag %d with %v", tag, err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("connection not closed after frame reject: %v", err)
	}
	if got := reg.Counter("server_frame_limit_rejects_total").Value(); got != 1 {
		t.Errorf("server_frame_limit_rejects_total = %d, want 1", got)
	}
	if kinds := dl.kinds(); len(kinds) != 1 || kinds[0] != "frame_limit" {
		t.Errorf("degrade events = %v, want [frame_limit]", kinds)
	}
}

// TestConnLimitRejects: connections past MaxConns get an error frame and
// are closed, while the connection holding the slot keeps working.
func TestConnLimitRejects(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(testModel(t), 1)
	s.Logf = t.Logf
	s.Obs = reg
	s.MaxConns = 1
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c1, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	rows := make([]float64, features.Dim)
	if _, err := c1.Predict(rows); err != nil { // slot now provably held
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if tag, _, err := NewMuxConn(conn).ReadResponse(); tag != 0 || err == nil || !strings.Contains(err.Error(), "connection limit") {
		t.Errorf("reject answered under tag %d with %v", tag, err)
	}
	if got := reg.Counter("server_conn_limit_rejects_total").Value(); got != 1 {
		t.Errorf("server_conn_limit_rejects_total = %d, want 1", got)
	}
	// The admitted connection is unaffected.
	if _, err := c1.Predict(rows); err != nil {
		t.Errorf("in-limit connection broken by reject: %v", err)
	}
}

// TestCloseDrainsIdleConnsGracefully: Close wakes idle handlers via an
// immediate read deadline; nothing is force-closed.
func TestCloseDrainsIdleConnsGracefully(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(testModel(t), 1)
	s.Logf = t.Logf
	s.Obs = reg
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Predict(make([]float64, features.Dim)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("drain of an idle connection took %v", elapsed)
	}
	if got := reg.Counter("server_drain_force_closes_total").Value(); got != 0 {
		t.Errorf("idle connection was force-closed (%d)", got)
	}
	if got := reg.Gauge("server_open_connections").Value(); got != 0 {
		t.Errorf("server_open_connections = %d after Close", got)
	}
}

// TestCloseForceClosesStuckConns: a handler stuck in an injected
// no-deadline stall ignores the drain wake-up; after DrainTimeout it is
// force-closed, counted, and surfaced.
func TestCloseForceClosesStuckConns(t *testing.T) {
	reg := obs.NewRegistry()
	var dl degradeLog
	s := New(testModel(t), 1)
	s.Logf = t.Logf
	s.Obs = reg
	s.ReadTimeout = -1 // no read deadline: the stall can only end at conn close
	s.DrainTimeout = 50 * time.Millisecond
	s.OnDegrade = dl.hook()
	sched := faultnet.NewSchedule(faultnet.Config{StallRead: 1000})
	pl := faultnet.NewPipeListener()
	s.Serve(faultnet.Wrap(pl, sched))
	conn, err := pl.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Wait for the handler to enter the stalled read.
	deadline := time.Now().Add(5 * time.Second)
	for sched.Stats().StallReads == 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler never reached the stalled read")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("server_drain_force_closes_total").Value(); got != 1 {
		t.Errorf("server_drain_force_closes_total = %d, want 1", got)
	}
	found := false
	for _, k := range dl.kinds() {
		if k == "drain_force_close" {
			found = true
		}
	}
	if !found {
		t.Errorf("no drain_force_close degrade event in %v", dl.kinds())
	}
}

// TestClientFailsFastOnStall: a server that accepts and then never
// responds must not hang Predict — the call's I/O deadline fires, the
// connection is dropped, and the error says it timed out.
func TestClientFailsFastOnStall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { // swallow the request, never answer
				_, _ = io.Copy(io.Discard, c)
				_ = c.Close()
			}(conn)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.timeout = 60 * time.Millisecond
	start := time.Now()
	_, err = c.Predict(make([]float64, features.Dim))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Predict succeeded against a stalling server")
	}
	if elapsed > 2*time.Second {
		t.Errorf("Predict took %v against a stalling server, want fast failure", elapsed)
	}
	if !isTimeout(err) || c.mc.conn != nil {
		t.Errorf("err %v (timeout %v), connection kept %v; want a timeout and the connection dropped",
			err, isTimeout(err), c.mc.conn != nil)
	}
}

// countingListener counts the connections a server's accept loop takes.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// TestClientDoesNotRedialAfterDrop: the Client is the bare round trip.
// When the server drops its connection, the call fails, the next call
// fails too, and the client never dials a second connection — which
// would restart the server's per-connection feature history unseen.
func TestClientDoesNotRedialAfterDrop(t *testing.T) {
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Every server read drops its connection.
	ln := &countingListener{Listener: faultnet.Wrap(tcp, faultnet.NewSchedule(faultnet.Config{Seed: 1, DropRead: 1000}))}
	s := New(testModel(t), 1)
	s.Logf = func(format string, args ...interface{}) {}
	s.Obs = obs.NewRegistry()
	s.Serve(ln)
	t.Cleanup(func() { s.Close() })

	c, err := Dial(tcp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows := make([]float64, features.Dim)
	if _, err := c.Predict(rows); err == nil {
		t.Fatal("call succeeded on a connection the server dropped")
	}
	if _, err := c.Predict(rows); !errors.Is(err, errClientClosed) {
		t.Fatalf("call after the drop: err %v, want %v", err, errClientClosed)
	}
	if n := ln.accepted.Load(); n != 1 {
		t.Errorf("server accepted %d connections, want 1: the client re-dialled", n)
	}
}
