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
// knows what to do with them. Client is a MuxConn with one call at a time.
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

// DefaultClientTimeout bounds the I/O of one Client call — and, in
// internal/fleet, of each Router pipeline window and shard dial.
const DefaultClientTimeout = 5 * time.Second

// errClientClosed fails every call after a transport failure.
var errClientClosed = errors.New("server: client connection closed by an earlier failure")

// Client is the bare synchronous round trip to a prediction server: a
// MuxConn with one call at a time, each under an I/O deadline of
// DefaultClientTimeout. It is not safe for concurrent use and holds no
// resilience policy: a transport failure (error, expired deadline, partial
// write, or a reply under another tag or with another number of
// probabilities than the request had rows) closes the connection, whose
// stream may be desynchronized, and is returned; later calls fail fast.
// It never re-dials, so the server's per-connection feature history behind
// Admit never restarts unseen. Retries and fallback are fleet.Router's.
type Client struct {
	mc      MuxConn       // mc.conn is nil once a transport failure closed it
	timeout time.Duration // the per-call I/O deadline; package tests shorten it
	tag     uint64        // the tag of the call in progress
	rows    int           // the row count of the call in progress
}

// Dial connects to a prediction server within DefaultClientTimeout.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, DefaultClientTimeout)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	return newClient(conn), nil
}

// newClient wraps an established connection.
func newClient(conn net.Conn) *Client {
	return &Client{mc: MuxConn{conn: conn}, timeout: DefaultClientTimeout}
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
// returns one admission probability per tuple. The server's feature
// history for them lives as long as the Client's one connection.
func (c *Client) Admit(reqs []AdmitRequest) ([]float64, error) {
	c.tag++
	c.rows = len(reqs)
	c.mc.wbuf = appendAdmit(c.mc.wbuf[:0], c.tag, reqs)
	return c.call()
}

// call makes one round trip with the assembled request frame and returns a
// copy of the reply's probabilities.
func (c *Client) call() ([]float64, error) {
	if c.mc.conn == nil {
		return nil, errClientClosed
	}
	_ = c.mc.conn.SetDeadline(time.Now().Add(c.timeout)) // deadline errors surface on the I/O below
	err := c.mc.send()
	if err == nil {
		var tag uint64
		var probs []float64
		tag, probs, err = c.mc.ReadResponse()
		switch {
		case err != nil:
		case tag != c.tag:
			err = fmt.Errorf("reply tagged %d answers another request", tag)
		case len(probs) != c.rows:
			err = fmt.Errorf("reply carries %d probabilities for %d rows", len(probs), c.rows)
		default:
			return slices.Clone(probs), nil
		}
	}
	if errors.As(err, new(remoteError)) {
		return nil, err // the server refused the request; the stream is in step
	}
	_ = c.mc.Close() // the stream may be desynced; nothing useful can fail here
	c.mc.conn = nil
	return nil, fmt.Errorf("server: call %d: %w", c.tag, err)
}
