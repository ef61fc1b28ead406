// Package faultnet is a seeded, deterministic fault-injection layer for
// the serving path: wrappers for net.Listener and net.Conn that inject
// partial reads, partial writes that desynchronize the stream, stalls
// that run into the peer's I/O deadline, mid-frame connection drops, and
// transient accept errors.
//
// Faults follow a Schedule — a pure function of (seed, connection index,
// operation kind, operation index) built on SplitMix64 hashing. Nothing
// consults the wall clock or the process-global random source, so the
// same seed against the same deterministic peer behavior injects exactly
// the same fault sequence on every run and for any worker count: the
// decision for a connection's k-th read depends only on which connection
// it is and that it is the k-th read, never on cross-connection timing.
// That makes chaos tests reproducible — observed failure counters can be
// compared exactly against the schedule's own injection counters (Stats).
//
// The layer wraps either side: wrap a server's listener with Wrap to
// shake out handler hardening, or wrap the conn a client dials (see
// WrapConn) to exercise retry/reconnect logic. PipeListener is the
// in-memory transport the chaos suites put under Wrap.
package faultnet

import (
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Op identifies the I/O operation a fault decision applies to.
type Op uint8

// Operation kinds.
const (
	OpRead Op = iota
	OpWrite
	OpAccept
)

// Action is what the schedule does to one operation.
type Action uint8

// Actions, in schedule precedence order.
const (
	// Pass forwards the operation unchanged.
	Pass Action = iota
	// Short delivers only a prefix: a read returns at most N bytes (no
	// error — exercises partial-read handling), a write writes N bytes to
	// the underlying conn and then fails with ErrInjected, leaving the
	// peer with a truncated frame (a desynchronized stream).
	Short
	// Stall blocks the operation until the deadline configured via
	// SetReadDeadline/SetWriteDeadline passes (failing with
	// os.ErrDeadlineExceeded), or until the conn is closed (failing with
	// net.ErrClosed) when no deadline is set. The deadline is the one in
	// force when the stall begins, which is before Stats counts it: a
	// deadline set later, such as a server's drain wake-up, does not end
	// a stall already counted.
	Stall
	// Drop closes the underlying connection and fails with ErrInjected.
	Drop
	// Reject makes Accept return a transient error without consuming the
	// pending connection (OpAccept only).
	Reject
)

// String names the action for test output.
func (a Action) String() string {
	switch a {
	case Pass:
		return "pass"
	case Short:
		return "short"
	case Stall:
		return "stall"
	case Drop:
		return "drop"
	case Reject:
		return "reject"
	}
	return "unknown"
}

// Decision is the schedule's verdict for one operation.
type Decision struct {
	Action Action
	// N is the prefix length for Short.
	N int
}

// ErrInjected is the error surfaced by injected drops and partial writes.
var ErrInjected = errors.New("faultnet: injected fault")

// acceptErr is the transient error injected into Accept.
type acceptErr struct{}

func (acceptErr) Error() string   { return "faultnet: injected accept error" }
func (acceptErr) Timeout() bool   { return false }
func (acceptErr) Temporary() bool { return true }

// Config sets per-operation fault rates in permille (0..1000). The zero
// value injects nothing.
type Config struct {
	// Seed keys the schedule; the same seed reproduces the same faults.
	Seed uint64
	// ShortRead / ShortWrite are partial-delivery rates.
	ShortRead, ShortWrite int
	// StallRead / StallWrite are stall rates.
	StallRead, StallWrite int
	// DropRead / DropWrite are connection-drop rates.
	DropRead, DropWrite int
	// AcceptError is the transient accept-failure rate.
	AcceptError int
	// MaxShort caps the prefix length of Short faults (0 means 8 bytes).
	MaxShort int
}

// Stats counts the faults a schedule actually injected. For a
// deterministic peer the counts are identical across runs.
type Stats struct {
	ShortReads, ShortWrites int64
	StallReads, StallWrites int64
	DropReads, DropWrites   int64
	AcceptErrors            int64
}

// Schedule decides faults. It is safe for concurrent use: decisions are
// pure functions of the key, and the injection counters are atomic.
type Schedule struct {
	cfg Config

	shortReads, shortWrites atomic.Int64
	stallReads, stallWrites atomic.Int64
	dropReads, dropWrites   atomic.Int64
	acceptErrors            atomic.Int64
}

// NewSchedule returns a schedule for the config.
func NewSchedule(cfg Config) *Schedule {
	if cfg.MaxShort <= 0 {
		cfg.MaxShort = 8
	}
	return &Schedule{cfg: cfg}
}

// Stats snapshots the injected-fault counters.
func (s *Schedule) Stats() Stats {
	return Stats{
		ShortReads:   s.shortReads.Load(),
		ShortWrites:  s.shortWrites.Load(),
		StallReads:   s.stallReads.Load(),
		StallWrites:  s.stallWrites.Load(),
		DropReads:    s.dropReads.Load(),
		DropWrites:   s.dropWrites.Load(),
		AcceptErrors: s.acceptErrors.Load(),
	}
}

// mix64 is SplitMix64's finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll derives the operation's hash: a pure function of the schedule seed
// and the operation key, independent of call order.
func (s *Schedule) roll(conn int64, op Op, index int64) uint64 {
	x := mix64(s.cfg.Seed ^ 0x9e3779b97f4a7c15)
	x = mix64(x ^ uint64(conn)*0xd1342543de82ef95)
	x = mix64(x ^ uint64(op)*0xaf251af3b0f025b5)
	x = mix64(x ^ uint64(index)*0x2545f4914f6cdd1d)
	return x
}

// Decide returns the fault decision for the index-th operation of kind op
// on connection conn (accept decisions use the listener's accept index
// and conn -1). Decide is pure: it never mutates the schedule, so tests
// can replay it to precompute the exact fault sequence.
func (s *Schedule) Decide(conn int64, op Op, index int64) Decision {
	r := s.roll(conn, op, index)
	die := int(r % 1000)
	var short, stall, drop int
	switch op {
	case OpRead:
		short, stall, drop = s.cfg.ShortRead, s.cfg.StallRead, s.cfg.DropRead
	case OpWrite:
		short, stall, drop = s.cfg.ShortWrite, s.cfg.StallWrite, s.cfg.DropWrite
	case OpAccept:
		if die < s.cfg.AcceptError {
			return Decision{Action: Reject}
		}
		return Decision{Action: Pass}
	}
	switch {
	case die < short:
		return Decision{Action: Short, N: 1 + int((r>>32)%uint64(s.cfg.MaxShort))}
	case die < short+stall:
		return Decision{Action: Stall}
	case die < short+stall+drop:
		return Decision{Action: Drop}
	}
	return Decision{Action: Pass}
}

// count records an injected fault in the stats.
func (s *Schedule) count(op Op, a Action) {
	switch {
	case op == OpRead && a == Short:
		s.shortReads.Add(1)
	case op == OpRead && a == Stall:
		s.stallReads.Add(1)
	case op == OpRead && a == Drop:
		s.dropReads.Add(1)
	case op == OpWrite && a == Short:
		s.shortWrites.Add(1)
	case op == OpWrite && a == Stall:
		s.stallWrites.Add(1)
	case op == OpWrite && a == Drop:
		s.dropWrites.Add(1)
	case op == OpAccept && a == Reject:
		s.acceptErrors.Add(1)
	}
}

// Listener wraps a net.Listener with accept-error injection and hands out
// fault-injecting conns numbered in accept order.
type Listener struct {
	net.Listener
	sched   *Schedule
	accepts atomic.Int64
	conns   atomic.Int64
}

// Wrap returns a fault-injecting listener over ln.
func Wrap(ln net.Listener, sched *Schedule) *Listener {
	return &Listener{Listener: ln, sched: sched}
}

// Accept implements net.Listener. Injected accept errors are transient
// (net.Error with Temporary() true) and do not consume the pending
// connection.
func (l *Listener) Accept() (net.Conn, error) {
	idx := l.accepts.Add(1) - 1
	if d := l.sched.Decide(-1, OpAccept, idx); d.Action == Reject {
		l.sched.count(OpAccept, Reject)
		return nil, acceptErr{}
	}
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return WrapConn(c, l.sched, l.conns.Add(1)-1), nil
}

// Conn wraps a net.Conn with fault injection. Reads and writes are
// numbered per direction; each consults the schedule before touching the
// underlying connection.
type Conn struct {
	conn  net.Conn
	sched *Schedule
	id    int64

	reads, writes atomic.Int64

	mu            sync.Mutex
	readDeadline  time.Time
	writeDeadline time.Time

	closed    chan struct{}
	closeOnce sync.Once
}

// WrapConn returns a fault-injecting wrapper around c, identified as
// connection id in the schedule.
func WrapConn(c net.Conn, sched *Schedule, id int64) *Conn {
	return &Conn{conn: c, sched: sched, id: id, closed: make(chan struct{})}
}

// stall blocks until the deadline passes (os.ErrDeadlineExceeded) or the
// conn closes (net.ErrClosed). The wait uses a timer armed from the
// deadline the peer configured — never a wall-clock read — so the
// schedule itself stays deterministic.
func (c *Conn) stall(deadline time.Time) error {
	if deadline.IsZero() {
		<-c.closed
		return net.ErrClosed
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-t.C:
		return os.ErrDeadlineExceeded
	case <-c.closed:
		return net.ErrClosed
	}
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	idx := c.reads.Add(1) - 1
	d := c.sched.Decide(c.id, OpRead, idx)
	switch d.Action {
	case Short:
		if len(p) > d.N {
			p = p[:d.N]
		}
		c.sched.count(OpRead, Short)
		return c.conn.Read(p)
	case Stall:
		c.mu.Lock()
		deadline := c.readDeadline
		c.mu.Unlock()
		c.sched.count(OpRead, Stall) // after the deadline is fixed: a counted stall ignores later deadlines
		return 0, c.stall(deadline)
	case Drop:
		c.sched.count(OpRead, Drop)
		_ = c.Close() // the injected fault is the close itself
		return 0, ErrInjected
	}
	return c.conn.Read(p)
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	idx := c.writes.Add(1) - 1
	d := c.sched.Decide(c.id, OpWrite, idx)
	switch d.Action {
	case Short:
		c.sched.count(OpWrite, Short)
		n := d.N
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			var err error
			n, err = c.conn.Write(p[:n])
			if err != nil {
				return n, err
			}
		}
		return n, ErrInjected
	case Stall:
		c.mu.Lock()
		deadline := c.writeDeadline
		c.mu.Unlock()
		c.sched.count(OpWrite, Stall) // after the deadline is fixed: a counted stall ignores later deadlines
		return 0, c.stall(deadline)
	case Drop:
		c.sched.count(OpWrite, Drop)
		_ = c.Close() // the injected fault is the close itself
		return 0, ErrInjected
	}
	return c.conn.Write(p)
}

// Close implements net.Conn; it also releases any in-flight stalls.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		err = c.conn.Close()
	})
	return err
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.conn.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.mu.Unlock()
	return c.conn.SetDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.conn.SetReadDeadline(t)
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return c.conn.SetWriteDeadline(t)
}
