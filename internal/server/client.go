package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"lfo/internal/gbdt"
)

// MuxConn is the pipelining side of one connection to a prediction
// server: writes and reads are decoupled so several batches can be in
// flight at once, and every buffer (request frames, the connection's
// read buffer, decoded probabilities) is reused across calls — the
// write/read cycle allocates nothing at steady state.
//
// Requests go out in one of two ways. WriteAdmitBatch and Rollout write
// at once; QueueAdmitBatch only appends its frame to the queue, which
// the next Flush (or WriteAdmitBatch, or Rollout) writes in one Write
// with every frame queued before it. Replies are read through one
// connBufBytes buffer, so replies the server wrote together arrive in
// one read.
//
// It is not safe for concurrent use and never retries: the caller owns
// failover policy (see internal/fleet), because by the time a pipelined
// connection fails, earlier batches may be unanswered and only the caller
// knows what to do with them. Client is a MuxConn with one call at a time.
type MuxConn struct {
	conn  net.Conn
	br    *bufio.Reader
	wbuf  []byte // frames queued and not yet written
	rbuf  []byte
	probs []float64
}

// NewMuxConn wraps an established connection for pipelined use.
func NewMuxConn(conn net.Conn) *MuxConn {
	return &MuxConn{conn: conn, br: newConnReader(conn)}
}

// Close closes the underlying connection.
func (c *MuxConn) Close() error { return c.conn.Close() }

// WriteAdmitBatch sends one tagged admit batch without waiting for the
// reply: the frame, after any queued ones, goes out in a single Write
// before it returns.
//
//lfo:hotpath
func (c *MuxConn) WriteAdmitBatch(tag uint64, reqs []AdmitRequest) error {
	c.QueueAdmitBatch(tag, reqs)
	return c.Flush()
}

// QueueAdmitBatch appends one tagged admit batch to the frames the next
// Flush writes. Nothing is sent: the caller must Flush before it waits
// for the reply.
//
//lfo:hotpath
func (c *MuxConn) QueueAdmitBatch(tag uint64, reqs []AdmitRequest) {
	c.wbuf = appendAdmit(c.wbuf, tag, reqs)
}

// Flush writes every queued frame in one Write. The queue is empty
// afterwards whether or not the Write succeeded, so no frame is ever
// sent twice; after an error the stream's state is unknown and the
// connection should be closed.
//
//lfo:hotpath
func (c *MuxConn) Flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	//lfolint:ignore hotpath-alloc net.Conn is the wire boundary; there is no static callee to verify
	_, err := c.conn.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

// ReadResponse reads the next reply and returns its tag and
// probabilities. The returned slice is reused by the next call — consume
// it before reading again. A remote application error surfaces as an error
// with the tag it answers, so the caller can account the affected batch.
//
//lfo:hotpath
func (c *MuxConn) ReadResponse() (uint64, []float64, error) {
	f, err := readFrame(c.br, &c.rbuf, maxFramePayload)
	if err != nil {
		return 0, nil, err
	}
	switch f.op {
	case opProbs:
		probs, err := decodeFloats(f.body, c.probs)
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

// ReplyBuffered reports whether the next reply has arrived whole in the
// connection's read buffer, so that ReadResponse returns it without a read
// from the connection. It costs no syscall.
//
//lfo:hotpath
func (c *MuxConn) ReplyBuffered() bool { return frameBuffered(c.br) }

// Rollout pushes a model to the peer as the given version and waits for
// the acknowledgement: the versioned hot-swap primitive fleet broadcasts
// across shards. The peer swaps atomically, acks version pushes it
// already runs (idempotent re-push), and rejects stale versions and
// models of the wrong width. No batch may be in flight: the ack must be
// the next reply.
func (c *MuxConn) Rollout(version uint64, m *gbdt.Model) error {
	var body bytes.Buffer
	if err := m.Save(&body); err != nil {
		return fmt.Errorf("server: serialize model: %w", err)
	}
	c.wbuf = appendRaw(c.wbuf, opModel, version, body.Bytes())
	if err := c.Flush(); err != nil {
		return err
	}
	f, err := readFrame(c.br, &c.rbuf, maxFramePayload)
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
	return &Client{mc: *NewMuxConn(conn), timeout: DefaultClientTimeout}
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

// Admit sends raw request tuples and returns one admission probability per
// tuple: one round trip, a copy of the reply's probabilities. The server's
// feature history for them lives as long as the Client's one connection.
func (c *Client) Admit(reqs []AdmitRequest) ([]float64, error) {
	if c.mc.conn == nil {
		return nil, errClientClosed
	}
	c.tag++
	_ = c.mc.conn.SetDeadline(time.Now().Add(c.timeout)) // deadline errors surface on the I/O below
	err := c.mc.WriteAdmitBatch(c.tag, reqs)
	if err == nil {
		var tag uint64
		var probs []float64
		tag, probs, err = c.mc.ReadResponse()
		switch {
		case err != nil:
		case tag != c.tag:
			err = fmt.Errorf("reply tagged %d answers another request", tag)
		case len(probs) != len(reqs):
			err = fmt.Errorf("reply carries %d probabilities for %d rows", len(probs), len(reqs))
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
