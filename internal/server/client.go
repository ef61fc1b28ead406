package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/obs"
)

// MuxConn is the pipelining side of one connection to a prediction
// server: writes and reads are decoupled so several batches can be in
// flight at once, and every buffer (request frame, reply frame, decoded
// probabilities) is reused across calls — the write/read cycle allocates
// nothing at steady state.
//
// It is not safe for concurrent use and never retries: the caller owns
// failover policy (see internal/fleet), because by the time a pipelined
// connection fails, earlier batches may be unanswered and only the caller
// knows what to do with them. Client is a MuxConn plus such a policy for
// one call at a time.
type MuxConn struct {
	conn  net.Conn
	wbuf  []byte
	rbuf  []byte
	probs []float64
}

// NewMuxConn wraps an established connection for pipelined use.
func NewMuxConn(conn net.Conn) *MuxConn {
	return &MuxConn{conn: conn}
}

// Close closes the underlying connection.
func (c *MuxConn) Close() error { return c.conn.Close() }

// WriteAdmitBatch sends one tagged admit batch without waiting for the
// reply. The frame is assembled in a reused buffer and written with a
// single Write call.
//
//lfo:hotpath
func (c *MuxConn) WriteAdmitBatch(tag uint64, reqs []AdmitRequest) error {
	c.wbuf = appendAdmit(c.wbuf[:0], tag, reqs)
	return c.send()
}

// send writes the assembled frame.
//
//lfo:hotpath
func (c *MuxConn) send() error {
	//lfolint:ignore hotpath-alloc net.Conn is the wire boundary; there is no static callee to verify
	_, err := c.conn.Write(c.wbuf)
	return err
}

// ReadResponse reads the next reply and returns its tag and
// probabilities. The returned slice is reused by the next call — consume
// it before reading again. A remote application error surfaces as an error
// with the tag it answers, so the caller can account the affected batch.
//
//lfo:hotpath
func (c *MuxConn) ReadResponse() (uint64, []float64, error) {
	f, err := readFrame(c.conn, &c.rbuf, maxFramePayload)
	if err != nil {
		return 0, nil, err
	}
	switch f.op {
	case opPredict:
		probs, err := decodeFloats(f.body, 1, c.probs)
		if err != nil {
			return f.tag, nil, err
		}
		c.probs = probs
		return f.tag, probs, nil
	case opError:
		//lfolint:ignore hotpath-alloc error path: the caller accounts the failed batch and tears the connection down
		return f.tag, nil, remoteError(f.body)
	default:
		return f.tag, nil, errOpcode
	}
}

// Rollout pushes a model to the peer as the given version and waits for
// the acknowledgement: the versioned hot-swap primitive fleet broadcasts
// across shards. The peer swaps atomically, acks version pushes it
// already runs (idempotent re-push), and rejects stale versions and
// models of the wrong width.
func (c *MuxConn) Rollout(version uint64, m *gbdt.Model) error {
	var body bytes.Buffer
	if err := m.Save(&body); err != nil {
		return fmt.Errorf("server: serialize model: %w", err)
	}
	c.wbuf = appendRaw(c.wbuf[:0], opModel, version, body.Bytes())
	if err := c.send(); err != nil {
		return err
	}
	f, err := readFrame(c.conn, &c.rbuf, maxFramePayload)
	switch {
	case err != nil:
		return err
	case f.op == opError:
		return remoteError(f.body)
	case f.op != opModel || len(f.body) != 0:
		return fmt.Errorf("server: bad model ack (op %#x, %d-byte body)", f.op, len(f.body))
	case f.tag != version:
		return fmt.Errorf("server: model ack version %d, want %d", f.tag, version)
	}
	return nil
}

// Default values for the client's robustness knobs. As on the server,
// each knob reads as: 0 = the default below, negative = disabled.
const (
	// DefaultClientTimeout bounds one request/response attempt.
	DefaultClientTimeout = 5 * time.Second
	// DefaultMaxRetries is how many times a failed attempt is retried on
	// a fresh connection before the error surfaces to the caller.
	DefaultMaxRetries = 2
	// DefaultBackoff is the sleep before the first retry; it doubles per
	// subsequent retry of the same call.
	DefaultBackoff = 5 * time.Millisecond
)

// ClientConfig tunes the client's robustness behavior. The zero value
// gives safe defaults (per-attempt timeout, bounded retries with
// exponential backoff).
type ClientConfig struct {
	// Timeout bounds one attempt — connect, request write, response
	// read. 0 means DefaultClientTimeout; negative disables the
	// deadline (an attempt may then block until the peer acts).
	Timeout time.Duration

	// MaxRetries is how many fresh-connection retries follow a failed
	// attempt. 0 means DefaultMaxRetries; negative means fail on the
	// first transport error. Remote application errors (opError frames)
	// are never retried.
	MaxRetries int

	// Backoff is the sleep before the first retry, doubling per
	// subsequent retry. 0 means DefaultBackoff; negative retries
	// immediately.
	Backoff time.Duration

	// Dial, when set, replaces net.Dial("tcp", addr) — tests use it to
	// interpose fault-injecting connections.
	Dial func() (net.Conn, error)

	// Obs, when set, counts retries, reconnects, per-attempt timeouts,
	// and calls that failed after exhausting retries.
	Obs *obs.Registry
}

// The knobs, resolved (0 where disabled).
func (cfg ClientConfig) timeout() time.Duration { return knob(cfg.Timeout, DefaultClientTimeout, 0) }
func (cfg ClientConfig) maxRetries() int        { return knob(cfg.MaxRetries, DefaultMaxRetries, 0) }
func (cfg ClientConfig) backoff() time.Duration { return knob(cfg.Backoff, DefaultBackoff, 0) }

type clientMetrics struct {
	retries    *obs.Counter
	reconnects *obs.Counter
	timeouts   *obs.Counter
	failures   *obs.Counter
}

func newClientMetrics(r *obs.Registry) clientMetrics {
	return clientMetrics{
		retries:    r.Counter("client_retries_total"),
		reconnects: r.Counter("client_reconnects_total"),
		timeouts:   r.Counter("client_timeouts_total"),
		failures:   r.Counter("client_failures_total"),
	}
}

// Client is a prediction-service client: a MuxConn with one request in
// flight at a time. It is synchronous and not safe for concurrent use.
//
// Calls fail fast rather than hang: each attempt runs under
// ClientConfig.Timeout, and a transport failure (error, timeout, partial
// write, or a reply tagged for another request or carrying another number
// of probabilities than the request had rows) closes the connection — the
// stream may be desynchronized — and retries on a fresh one, with
// exponential backoff, up to MaxRetries.
type Client struct {
	cfg  ClientConfig
	dial func() (net.Conn, error)
	mc   MuxConn // mc.conn is nil between a dropped connection and the next dial
	tag  uint64  // the tag of the call in progress
	rows int     // the row count of the call in progress
	m    clientMetrics
}

// Dial connects to a prediction server with default robustness settings.
func Dial(addr string) (*Client, error) {
	return DialConfig(addr, ClientConfig{})
}

// DialConfig connects to a prediction server with explicit settings. The
// initial connect fails fast like calls do (no retries: a dead address
// should surface immediately).
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	c := &Client{cfg: cfg, dial: cfg.Dial, m: newClientMetrics(cfg.Obs)}
	if c.dial == nil {
		c.dial = func() (net.Conn, error) {
			d := net.Dialer{Timeout: cfg.timeout()}
			return d.Dial("tcp", addr)
		}
	}
	conn, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	c.mc.conn = conn
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error {
	if c.mc.conn == nil {
		return nil
	}
	err := c.mc.Close()
	c.mc.conn = nil
	return err
}

// Predict sends a flat row-major feature matrix (len divisible by
// features.Dim) and returns one probability per row.
func (c *Client) Predict(rows []float64) ([]float64, error) {
	c.tag++
	c.rows = len(rows) / features.Dim
	c.mc.wbuf = appendPredict(c.mc.wbuf[:0], c.tag, rows)
	return c.call()
}

// Admit sends raw request tuples over the compact stateful protocol and
// returns one admission probability per tuple.
//
// Note the session caveat: the server tracks per-object history per
// connection, so a retry that reconnects loses accumulated history for
// this client. The call still succeeds; early predictions after a
// reconnect see cold features.
func (c *Client) Admit(reqs []AdmitRequest) ([]float64, error) {
	c.tag++
	c.rows = len(reqs)
	c.mc.wbuf = appendAdmit(c.mc.wbuf[:0], c.tag, reqs)
	return c.call()
}

// call sends the assembled request frame and returns a copy of the
// reply's probabilities, with retries. The frame is idempotent to resend:
// each retry runs on a fresh connection.
func (c *Client) call() ([]float64, error) {
	retries := c.cfg.maxRetries()
	backoff := c.cfg.backoff()
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			c.m.retries.Inc()
			if backoff > 0 {
				time.Sleep(backoff << uint(min(attempt-1, 16)))
			}
		}
		if c.mc.conn == nil {
			var conn net.Conn
			conn, err = c.dial()
			if err != nil {
				continue
			}
			c.mc.conn = conn
			c.m.reconnects.Inc()
		}
		if t := c.cfg.timeout(); t > 0 {
			_ = c.mc.conn.SetDeadline(time.Now().Add(t)) // deadline errors surface on the I/O below
		}
		var probs []float64
		if probs, err = c.attempt(); err == nil {
			return slices.Clone(probs), nil
		}
		var remote remoteError
		if errors.As(err, &remote) {
			return nil, err // the server refused the request; the stream is in step
		}
		if isTimeout(err) {
			c.m.timeouts.Inc()
		}
		// The connection may hold a half-written request or a half-read
		// or mis-paired reply; it cannot be reused.
		_ = c.mc.Close() // the stream is desynced; nothing useful can fail here
		c.mc.conn = nil
	}
	c.m.failures.Inc()
	return nil, fmt.Errorf("server: call failed after %d attempts: %w", retries+1, err)
}

// attempt makes one round trip on the current connection.
func (c *Client) attempt() ([]float64, error) {
	if err := c.mc.send(); err != nil {
		return nil, err
	}
	tag, probs, err := c.mc.ReadResponse()
	if err == nil && tag != c.tag {
		err = fmt.Errorf("server: reply tagged %d answers another request than %d", tag, c.tag)
	} else if err == nil && len(probs) != c.rows {
		err = fmt.Errorf("server: reply carries %d probabilities for %d rows", len(probs), c.rows)
	}
	return probs, err
}
