package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/obs"
	"lfo/internal/trace"
)

// Default values for the server's robustness knobs. Each knob field reads
// as: 0 = the default below, negative = disabled/unbounded.
const (
	// DefaultReadTimeout bounds the wait for a complete request frame
	// (including idle time between frames).
	DefaultReadTimeout = 2 * time.Minute
	// DefaultWriteTimeout bounds one write of replies.
	DefaultWriteTimeout = 30 * time.Second
	// DefaultDrainTimeout is how long Close waits for in-flight handlers
	// to finish before force-closing their connections.
	DefaultDrainTimeout = 5 * time.Second
	// DefaultMaxConns bounds concurrently served connections.
	DefaultMaxConns = 1024
)

// DegradeEvent describes one degradation on the serving path: a deadline
// violation, a protocol-limit rejection, an accept failure, or a forced
// close at drain time. Events are rare by construction (per connection or
// per violation, never per request), so a handler can log each one.
type DegradeEvent struct {
	// Kind is one of "read_timeout", "write_timeout", "frame_limit",
	// "conn_limit", "accept_error", "drain_force_close".
	Kind string
	// Remote is the peer address, when known.
	Remote string
	// Err is the underlying error, when there is one.
	Err error
}

// Server serves admission-likelihood predictions over TCP. The deployed
// model changes at runtime only by a versioned rollout over the wire
// (opModel: MuxConn.Rollout, fleet.Router.Rollout), mirroring LFO's
// per-window model handoff, and every connection is handled by its own
// goroutine.
//
// The serving path is hardened for production use: per-frame read and
// per-response write deadlines, a frame-size cap enforced before payload
// allocation, a bound on concurrently served connections, an accept loop
// that survives transient accept errors, and a graceful drain on Close.
// Every violation is counted (Obs) and surfaced once via OnDegrade.
type Server struct {
	model    atomic.Pointer[gbdt.Model]
	version  atomic.Uint64
	swapMu   sync.Mutex // serializes versioned swaps (opModel) across connections
	listener net.Listener
	workers  int

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Logf receives connection-level errors; defaults to log.Printf.
	// Must be set before Serve.
	Logf func(format string, args ...interface{})

	// MaxTrackedObjects bounds each connection's opAdmit feature tracker,
	// mirroring core.Config.MaxTrackedObjects: 0 keeps the historical
	// default of 1<<22 objects; a negative value removes the bound. Must
	// be set before Listen.
	MaxTrackedObjects int

	// ReadTimeout bounds the wait for one complete request frame; a
	// connection that stalls mid-frame (or idles longer) is closed and
	// counted. 0 means DefaultReadTimeout; negative disables the
	// deadline. Must be set before Listen.
	ReadTimeout time.Duration

	// WriteTimeout bounds one write of replies. 0 means
	// DefaultWriteTimeout; negative disables the deadline. Must be set
	// before Listen.
	WriteTimeout time.Duration

	// DrainTimeout is how long Close waits for in-flight handlers before
	// force-closing their connections. 0 means DefaultDrainTimeout;
	// negative force-closes immediately. Must be set before Listen.
	DrainTimeout time.Duration

	// MaxFramePayload caps a request frame's payload bytes. 0 means the
	// package default (64 MiB); negative lifts the cap to the protocol
	// maximum (4 GiB minus one). Oversized frames close the connection:
	// the unread payload leaves the stream desynchronized. Must be set
	// before Listen.
	MaxFramePayload int

	// MaxConns bounds concurrently served connections — the server's
	// concurrency limit, since it serves a connection's requests one at a
	// time. Excess connections receive an error frame and are closed. 0
	// means DefaultMaxConns; negative removes the bound. Must be set
	// before Listen.
	MaxConns int

	// OnDegrade, when set, receives one event per degradation (deadline
	// violation, limit rejection, accept error, drain force-close) — the
	// structured alternative to per-request log noise. Called from
	// serving goroutines; must be safe for concurrent use. Must be set
	// before Listen.
	OnDegrade func(ev DegradeEvent)

	// Obs, when set, records admit request/row counters, frame
	// read/write errors, degradation counters (timeouts, limit
	// rejections, accept errors, drain force-closes), a predict latency
	// histogram, and an open-connections gauge (see internal/obs). Must
	// be set before Listen.
	Obs *obs.Registry

	m serverMetrics // handles resolved in Serve; nil-safe no-ops otherwise
}

// serverMetrics bundles the per-server metric handles. All handles are
// nil (single-branch no-ops) when the registry is nil.
type serverMetrics struct {
	admitReqs     *obs.Counter
	admitRows     *obs.Counter
	readErrors    *obs.Counter
	writeErrors   *obs.Counter
	badRequests   *obs.Counter
	readTimeouts  *obs.Counter
	writeTimeouts *obs.Counter
	frameRejects  *obs.Counter
	connRejects   *obs.Counter
	acceptErrors  *obs.Counter
	drainKills    *obs.Counter
	modelSwaps    *obs.Counter
	swapRejects   *obs.Counter
	replyWrites   *obs.Counter
	modelVersion  *obs.Gauge
	openConns     *obs.Gauge
	predictNS     *obs.Histogram
}

func newServerMetrics(r *obs.Registry) serverMetrics {
	return serverMetrics{
		admitReqs:     r.Counter("server_admit_requests_total"),
		admitRows:     r.Counter("server_admit_rows_total"),
		readErrors:    r.Counter("server_read_errors_total"),
		writeErrors:   r.Counter("server_write_errors_total"),
		badRequests:   r.Counter("server_bad_requests_total"),
		readTimeouts:  r.Counter("server_read_timeouts_total"),
		writeTimeouts: r.Counter("server_write_timeouts_total"),
		frameRejects:  r.Counter("server_frame_limit_rejects_total"),
		connRejects:   r.Counter("server_conn_limit_rejects_total"),
		acceptErrors:  r.Counter("server_accept_errors_total"),
		drainKills:    r.Counter("server_drain_force_closes_total"),
		modelSwaps:    r.Counter("server_model_swaps_total"),
		swapRejects:   r.Counter("server_model_swap_rejects_total"),
		replyWrites:   r.Counter("server_reply_writes_total"),
		modelVersion:  r.Gauge("server_model_version"),
		openConns:     r.Gauge("server_open_connections"),
		predictNS:     r.Histogram("server_predict_ns", obs.LatencyBounds),
	}
}

// knob resolves a "0 = default, negative = disabled" setting: v when
// positive, def when zero, off when negative.
func knob[T int | time.Duration](v, def, off T) T {
	switch {
	case v > 0:
		return v
	case v < 0:
		return off
	default:
		return def
	}
}

// The knobs, resolved. Disabled deadlines and bounds read 0 (a
// features.NewTracker bound of 0 is unbounded); a disabled frame cap is
// the protocol maximum.
func (s *Server) trackerBound() int           { return knob(s.MaxTrackedObjects, 1<<22, 0) }
func (s *Server) readTimeout() time.Duration  { return knob(s.ReadTimeout, DefaultReadTimeout, 0) }
func (s *Server) writeTimeout() time.Duration { return knob(s.WriteTimeout, DefaultWriteTimeout, 0) }
func (s *Server) drainTimeout() time.Duration { return knob(s.DrainTimeout, DefaultDrainTimeout, 0) }
func (s *Server) maxFrame() int               { return knob(s.MaxFramePayload, maxFramePayload, math.MaxUint32) }
func (s *Server) maxConns() int               { return knob(s.MaxConns, DefaultMaxConns, 0) }

// degrade counts nothing itself — callers bump their counter — but fans
// the event out to OnDegrade when configured.
func (s *Server) degrade(kind string, remote net.Addr, err error) {
	if s.OnDegrade == nil {
		return
	}
	ev := DegradeEvent{Kind: kind, Err: err}
	if remote != nil {
		ev.Remote = remote.String()
	}
	s.OnDegrade(ev)
}

// New returns a server deploying the given model as version 0 (nil: none
// yet; every admit request is refused until a rollout deploys one).
// workers bounds the per-request prediction parallelism (0 = all
// available cores, 1 = serial). A model whose width is not features.Dim
// is a programming error and panics.
func New(model *gbdt.Model, workers int) *Server {
	if model != nil {
		if err := checkWidth(model); err != nil {
			panic("server: " + err.Error())
		}
	}
	s := &Server{workers: workers, conns: make(map[net.Conn]struct{}), Logf: log.Printf}
	s.model.Store(model)
	return s
}

// checkWidth rejects a model that does not score features.Dim-wide rows:
// every row the server builds or accepts is that wide, and the scorer
// panics on any other width.
func checkWidth(m *gbdt.Model) error {
	if m.Dim != features.Dim {
		return fmt.Errorf("model scores %d features, want %d", m.Dim, features.Dim)
	}
	return nil
}

// ModelVersion returns the deployed model version (0 = the boot model).
func (s *Server) ModelVersion() uint64 { return s.version.Load() }

// Listen binds the address (e.g. "127.0.0.1:0") and serves it (see
// Serve). It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.Serve(ln)
	return ln.Addr(), nil
}

// Serve accepts connections from ln in a background goroutine and returns
// immediately; tests use it to interpose fault-injecting listeners. A
// server serves once: Serve or Listen is called once.
func (s *Server) Serve(ln net.Listener) {
	s.m = newServerMetrics(s.Obs)
	s.m.modelVersion.Set(int64(s.version.Load()))
	s.listener = ln
	s.wg.Add(1)
	go s.acceptLoop()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var errStreak int
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// A transient accept failure (connection reset before
			// accept, file-descriptor pressure, injected fault) must not
			// kill the accept loop; back off briefly so a persistent
			// failure cannot spin the CPU.
			s.m.acceptErrors.Inc()
			s.degrade("accept_error", nil, err)
			errStreak++
			if errStreak > 1 {
				backoff := time.Millisecond << uint(min(errStreak-2, 7))
				time.Sleep(backoff)
			}
			continue
		}
		errStreak = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close() // already shutting down; nothing to report to
			return
		}
		if mc := s.maxConns(); mc > 0 && len(s.conns) >= mc {
			s.mu.Unlock()
			s.m.connRejects.Inc()
			s.degrade("conn_limit", conn.RemoteAddr(), nil)
			s.wg.Add(1)
			go s.rejectConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// rejectConn answers an over-limit connection with an error frame and
// closes it.
func (s *Server) rejectConn(conn net.Conn) {
	defer s.wg.Done()
	goodbye(conn, s.writeTimeout(), "server at connection limit")
	_ = conn.Close() // reject path; nothing to report to
}

// goodbye sends an unasked error frame (tag 0) under the write deadline,
// best effort: the connection is closed next either way.
func goodbye(conn net.Conn, timeout time.Duration, msg string) {
	if timeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(timeout)) // best-effort bound on the goodbye frame
	}
	_, _ = conn.Write(appendRaw(nil, opError, 0, []byte(msg))) // a failed goodbye changes nothing
}

// isTimeout reports whether an I/O error is a deadline violation.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// draining reports whether Close has begun.
func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// armRead gives conn a fresh read deadline unless Close has begun. The
// check and the set are one step under s.mu, so a handler can never
// replace the immediate deadline Close wakes it with by a later one.
func (s *Server) armRead(conn net.Conn, timeout time.Duration) {
	if timeout <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		_ = conn.SetReadDeadline(time.Now().Add(timeout)) // deadline errors surface on the read itself
	}
}

// connState is one connection's scratch: the buffered reader its request
// frames arrive through, the frame buffer each is read into, the replies
// not yet written, the lazy feature tracker of the stateful admit
// protocol, and the decoded batch, feature matrix and probabilities, each
// grown to the largest the connection has seen. A connection is served
// serially, so each reply is encoded before the next request reuses them.
type connState struct {
	br         *bufio.Reader
	rbuf, wbuf []byte
	tracker    *features.Tracker
	reqs       []AdmitRequest
	rows       []float64
	probs      []float64
}

// errNoModel answers requests that arrive before any model is deployed.
var errNoModel = errors.New("no model deployed")

// handle serves one connection until disconnect, error, or drain.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	s.m.openConns.Add(1)
	defer s.m.openConns.Add(-1)
	defer func() {
		_ = conn.Close() // best-effort teardown of a served connection
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	s.serveConn(conn, &connState{br: newConnReader(conn)})
}

// serveConn answers conn's request frames in order, each under its tag.
// Every complete frame the read buffer holds is answered before anything
// is written; the replies then go out together in one Write, just before
// the handler next has to read the connection. A partial frame in the
// buffer never holds a reply back, and replies already encoded are
// written before a read error ends the connection. When Close begins,
// the complete frames already buffered (at most connBufBytes of them) are
// still answered; the next read from the connection ends it.
func (s *Server) serveConn(conn net.Conn, cs *connState) {
	maxFrame := s.maxFrame()
	readTimeout := s.readTimeout()
	writeTimeout := s.writeTimeout()
	for {
		if !frameBuffered(cs.br) {
			if s.writeReplies(conn, writeTimeout, cs) != nil {
				return
			}
			s.armRead(conn, readTimeout)
		}
		f, err := readFrame(cs.br, &cs.rbuf, maxFrame)
		if err != nil {
			werr := s.writeReplies(conn, writeTimeout, cs)
			var tooLarge *ErrFrameTooLarge
			switch {
			case s.draining():
				// Drain wake-up (Close set an immediate deadline) or the
				// peer leaving during shutdown; never a degradation.
			case isTimeout(err):
				s.m.readTimeouts.Inc()
				s.degrade("read_timeout", conn.RemoteAddr(), err)
			case errors.As(err, &tooLarge):
				// The oversized payload is unread, so the stream cannot
				// be resynchronized: answer (best effort) and close.
				s.m.frameRejects.Inc()
				s.degrade("frame_limit", conn.RemoteAddr(), err)
				if werr == nil {
					goodbye(conn, writeTimeout, err.Error())
				}
			case benignDisconnect(err):
			default:
				s.m.readErrors.Inc()
				s.Logf("server: read from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		cs.wbuf = s.respond(cs, f, cs.wbuf)
	}
}

// respond appends to b the reply to one request frame, under its tag:
// probabilities, a model ack, or an error. Malformed requests, unknown
// opcodes among them, are counted; the no-model condition is not, being a
// deployment state rather than a peer fault.
func (s *Server) respond(cs *connState, f frame, b []byte) []byte {
	var err error
	switch f.op {
	case opAdmit:
		var probs []float64
		if probs, err = s.process(cs, f.body); err == nil {
			return appendProbs(b, f.tag, probs)
		}
		if !errors.Is(err, errNoModel) {
			s.m.badRequests.Inc()
		}
	case opModel:
		if err = s.swapModel(f.tag, f.body); err == nil {
			return appendRaw(b, opModel, f.tag, nil)
		}
		s.m.swapRejects.Inc()
	default:
		err = fmt.Errorf("server: unknown opcode %#x", f.op)
		s.m.badRequests.Inc()
	}
	return appendRaw(b, opError, f.tag, []byte(err.Error()))
}

// swapModel deploys a pushed model under its version: newer versions swap
// atomically, the current version acks idempotently (re-pushed rollouts),
// and stale or unversioned pushes are rejected so a lagging controller
// cannot roll a shard backwards, as are models of the wrong width.
func (s *Server) swapModel(version uint64, body []byte) error {
	if version == 0 {
		return errors.New("server: model swap version must be >= 1")
	}
	m, err := gbdt.Load(bytes.NewReader(body))
	if err == nil {
		err = checkWidth(m)
	}
	if err != nil {
		return fmt.Errorf("server: model swap rejected: %v", err)
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.version.Load()
	if version < cur {
		return fmt.Errorf("server: stale model swap: version %d, deployed %d", version, cur)
	}
	if version > cur {
		s.model.Store(m)
		s.version.Store(version)
		s.m.modelSwaps.Inc()
		s.m.modelVersion.Set(int64(version))
	}
	return nil
}

// process evaluates one opAdmit body against the deployed model: features
// are extracted row by row (the tracker mutates between rows) into a
// reused matrix, which one PredictMatrix call scores, fanning a large
// block out across the server's workers.
func (s *Server) process(cs *connState, body []byte) ([]float64, error) {
	m := s.model.Load()
	if m == nil {
		return nil, errNoModel
	}
	reqs, err := decodeAdmit(body, cs.reqs)
	if err != nil {
		return nil, err
	}
	cs.reqs = reqs
	if cs.tracker == nil {
		cs.tracker = features.NewTracker(s.trackerBound())
	}
	s.m.admitReqs.Inc()
	s.m.admitRows.Add(int64(len(reqs)))
	sc := obs.Start(s.m.predictNS)
	cs.rows = grow(cs.rows[:0], len(reqs)*features.Dim)
	for i, ar := range reqs {
		r := trace.Request{Time: ar.Time, ID: trace.ObjectID(ar.ID), Size: ar.Size, Cost: ar.Cost}
		cs.tracker.Observe(r, ar.Free, cs.rows[i*features.Dim:(i+1)*features.Dim])
	}
	cs.probs = grow(cs.probs[:0], len(reqs))
	m.PredictMatrix(cs.rows, cs.probs, s.workers)
	sc.Stop()
	return cs.probs, nil
}

// writeReplies writes the replies encoded since the last write, in one
// Write under the write deadline, counting the write, timeout violations
// and write errors.
func (s *Server) writeReplies(conn net.Conn, timeout time.Duration, cs *connState) error {
	if len(cs.wbuf) == 0 {
		return nil
	}
	if timeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(timeout)) // deadline errors surface on the write itself
	}
	s.m.replyWrites.Inc()
	_, err := conn.Write(cs.wbuf)
	cs.wbuf = cs.wbuf[:0]
	if err == nil {
		return nil
	}
	if isTimeout(err) {
		s.m.writeTimeouts.Inc()
		s.degrade("write_timeout", conn.RemoteAddr(), err)
	} else {
		s.m.writeErrors.Inc()
	}
	return err
}

// benignDisconnect reports whether a frame-read error is an ordinary
// client disconnect — clean between frames (io.EOF, possibly wrapped) or
// mid-frame (io.ErrUnexpectedEOF) — or our own Close tearing the socket
// down. None of these warrant logging.
func benignDisconnect(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

// Close stops accepting and drains: idle connections are woken with an
// immediate read deadline and exit cleanly once they have answered the
// complete frames already in their read buffers, in-flight replies
// finish under their write deadline, and whatever remains after DrainTimeout is
// force-closed (counted, surfaced via OnDegrade).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	// Wake handlers blocked waiting for the next frame; handlers notice
	// the drain and exit without treating the wake as a timeout.
	wake := time.Now()
	for _, c := range conns {
		_ = c.SetReadDeadline(wake) // best effort; the conn may be racing its own close
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if dt := s.drainTimeout(); dt > 0 {
		timer := time.NewTimer(dt)
		defer timer.Stop()
		select {
		case <-done:
			return err
		case <-timer.C:
		}
	}
	// Grace expired (or drain disabled): force-close survivors.
	s.mu.Lock()
	for c := range s.conns {
		s.m.drainKills.Inc()
		s.degrade("drain_force_close", c.RemoteAddr(), nil)
		_ = c.Close() // force handlers to unblock; their errors are benign here
	}
	s.mu.Unlock()
	<-done
	return err
}
