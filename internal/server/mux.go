// Mux frame extension: correlation-ID envelopes that let a client keep
// multiple request batches in flight on one connection, plus the
// versioned model-rollout opcode.
//
// Wire format (little-endian, inside the u32 length framing of proto.go):
//
//	mux request:   u8 opMux | u64 corrID | inner request payload
//	mux response:  u8 opMux | u64 corrID | inner response payload
//	model swap:    u8 opModel | u64 version | gob model bytes
//	model ack:     u8 opModel | u64 version
//
// The inner payload is a complete classic frame payload (an opPredict or
// opAdmit request; an opPredict or opError response), so the mux layer is
// a pure envelope: every decoder and limit of the base protocol applies
// unchanged. The server processes a connection's frames strictly in
// order and answers in order, echoing each request's correlation ID —
// pipelining removes the per-batch round-trip stall, and the echoed ID
// lets a client prove the stream never desynchronized (and fail fast
// onto its fallback when it did).
package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"lfo/internal/gbdt"
)

// muxHdrBytes is the envelope overhead: opcode byte plus correlation ID.
const muxHdrBytes = 1 + 8

// DefaultMuxResponseMax bounds a response frame a MuxConn will accept.
// Responses carry one float64 per row (plus envelope bytes), so 1 MiB
// covers batches far beyond any sane pipeline window while keeping a
// misbehaving peer from forcing large allocations.
const DefaultMuxResponseMax = 1 << 20

// Mux codec errors are predeclared so the pipelined read path does not
// allocate to report them.
var (
	errMuxShort      = errors.New("server: short mux frame")
	errMuxOpcode     = errors.New("server: frame is not a mux envelope")
	errMuxInnerShape = errors.New("server: mux response payload length does not match its row count")
)

// appendMuxAdmit appends a complete length-prefixed mux opAdmit frame
// (framing header included) to buf and returns the extended slice.
// Writing into a caller-owned buffer keeps the pipelined hot path
// allocation-free once the buffer reaches steady-state capacity.
//
//lfo:hotpath
func appendMuxAdmit(buf []byte, id uint64, reqs []AdmitRequest) []byte {
	payloadLen := muxHdrBytes + 5 + len(reqs)*admitRowBytes
	start := len(buf)
	buf = growFrameBuf(buf, start+4+payloadLen)
	b := buf[start:]
	binary.LittleEndian.PutUint32(b, uint32(payloadLen))
	b[4] = opMux
	binary.LittleEndian.PutUint64(b[5:], id)
	b[13] = opAdmit
	binary.LittleEndian.PutUint32(b[14:], uint32(len(reqs)))
	off := 18
	for i := range reqs {
		r := &reqs[i]
		binary.LittleEndian.PutUint64(b[off:], uint64(r.Time))
		binary.LittleEndian.PutUint64(b[off+8:], r.ID)
		binary.LittleEndian.PutUint64(b[off+16:], uint64(r.Size))
		binary.LittleEndian.PutUint64(b[off+24:], math.Float64bits(r.Cost))
		binary.LittleEndian.PutUint64(b[off+32:], uint64(r.Free))
		off += admitRowBytes
	}
	return buf
}

// growFrameBuf extends buf to length n, reallocating only when capacity
// is insufficient — the single amortized allocation of the mux write
// path.
//
//lfo:hotpath
func growFrameBuf(buf []byte, n int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	//lfolint:ignore hotpath-alloc amortized: the frame buffer reaches steady-state capacity after the first few batches and is reused thereafter
	next := make([]byte, n)
	copy(next, buf)
	return next
}

// decodeMux splits a mux envelope into its correlation ID and inner
// payload. The inner slice aliases payload.
//
//lfo:hotpath
func decodeMux(payload []byte) (uint64, []byte, error) {
	if len(payload) < muxHdrBytes {
		return 0, nil, errMuxShort
	}
	if payload[0] != opMux {
		return 0, nil, errMuxOpcode
	}
	return binary.LittleEndian.Uint64(payload[1:9]), payload[muxHdrBytes:], nil
}

// encodeMuxResponse wraps an inner response payload in a mux envelope.
// Used by the server, where a per-response allocation is acceptable; the
// client-side hot path never calls it.
func encodeMuxResponse(id uint64, inner []byte) []byte {
	buf := make([]byte, muxHdrBytes+len(inner))
	buf[0] = opMux
	binary.LittleEndian.PutUint64(buf[1:9], id)
	copy(buf[muxHdrBytes:], inner)
	return buf
}

// encodeModelSwap builds an opModel frame payload carrying a serialized
// model at the given version.
func encodeModelSwap(version uint64, model []byte) []byte {
	buf := make([]byte, muxHdrBytes+len(model))
	buf[0] = opModel
	binary.LittleEndian.PutUint64(buf[1:9], version)
	copy(buf[muxHdrBytes:], model)
	return buf
}

// decodeModelSwap splits an opModel frame into version and model bytes
// (aliasing payload).
func decodeModelSwap(payload []byte) (uint64, []byte, error) {
	if len(payload) < muxHdrBytes || payload[0] != opModel {
		return 0, nil, fmt.Errorf("server: bad model swap frame (%d bytes)", len(payload))
	}
	return binary.LittleEndian.Uint64(payload[1:9]), payload[muxHdrBytes:], nil
}

// encodeModelAck builds the opModel acknowledgement payload.
func encodeModelAck(version uint64) []byte {
	buf := make([]byte, muxHdrBytes)
	buf[0] = opModel
	binary.LittleEndian.PutUint64(buf[1:9], version)
	return buf
}

// decodeModelAck parses an opModel acknowledgement (or surfaces the
// remote opError it came back as).
func decodeModelAck(payload []byte) (uint64, error) {
	if len(payload) >= 5 && payload[0] == opError {
		n := int(binary.LittleEndian.Uint32(payload[1:5]))
		if 5+n > len(payload) {
			n = len(payload) - 5
		}
		return 0, fmt.Errorf("server: remote error: %s", payload[5:5+n])
	}
	if len(payload) != muxHdrBytes || payload[0] != opModel {
		return 0, fmt.Errorf("server: bad model ack (%d bytes)", len(payload))
	}
	return binary.LittleEndian.Uint64(payload[1:9]), nil
}

// MuxConn is the pipelining side of one connection to a prediction
// server: writes and reads are decoupled so several batches can be in
// flight at once, and every buffer (request frame, response frame,
// decoded probabilities) is reused across calls — the write/read cycle
// allocates nothing at steady state.
//
// Like Client it is synchronous per operation and not safe for
// concurrent use; unlike Client it never retries — the caller owns
// failover policy (see internal/fleet), because by the time a pipelined
// connection fails, earlier batches may be unacknowledged and only the
// caller knows what to do with them.
type MuxConn struct {
	conn net.Conn

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

// WriteAdmitBatch sends one correlation-ID-tagged admit batch without
// waiting for a response. The frame is assembled in a reused buffer and
// written with a single Write call.
//
//lfo:hotpath
func (c *MuxConn) WriteAdmitBatch(id uint64, reqs []AdmitRequest) error {
	c.wbuf = appendMuxAdmit(c.wbuf[:0], id, reqs)
	//lfolint:ignore hotpath-alloc net.Conn is the wire boundary; there is no static callee to verify
	_, err := c.conn.Write(c.wbuf)
	return err
}

// ReadResponse reads the next pipelined response and returns its
// correlation ID and probabilities. The returned slice is reused by the
// next call — consume it before reading again. A remote application
// error surfaces as an error with the ID it was correlated to, so the
// caller can account the affected batch.
//
//lfo:hotpath
func (c *MuxConn) ReadResponse() (uint64, []float64, error) {
	payload, err := c.readFrameReuse()
	if err != nil {
		return 0, nil, err
	}
	id, inner, err := decodeMux(payload)
	if err != nil {
		return 0, nil, err
	}
	if len(inner) < 5 {
		return id, nil, errMuxShort
	}
	if inner[0] == opError {
		return id, nil, c.remoteError(inner)
	}
	if inner[0] != opPredict {
		return id, nil, errMuxOpcode
	}
	n := int(binary.LittleEndian.Uint32(inner[1:5]))
	if len(inner) != 5+n*8 {
		return id, nil, errMuxInnerShape
	}
	c.probs = growProbs(c.probs, n)
	for i := 0; i < n; i++ {
		c.probs[i] = math.Float64frombits(binary.LittleEndian.Uint64(inner[5+i*8:]))
	}
	return id, c.probs[:n], nil
}

// remoteError materializes a remote opError payload; it allocates, which
// is fine on a path that is about to tear the shard connection down.
func (c *MuxConn) remoteError(inner []byte) error {
	n := int(binary.LittleEndian.Uint32(inner[1:5]))
	if 5+n > len(inner) {
		n = len(inner) - 5
	}
	//lfolint:ignore hotpath-alloc error path: the caller accounts the failed batch and tears the connection down
	return fmt.Errorf("server: remote error: %s", inner[5:5+n])
}

// growProbs extends the decoded-probability scratch, reallocating only on
// capacity growth.
//
//lfo:hotpath
func growProbs(probs []float64, n int) []float64 {
	if cap(probs) >= n {
		return probs[:n]
	}
	//lfolint:ignore hotpath-alloc amortized: the probability scratch reaches steady-state capacity after the first few batches
	return make([]float64, n)
}

// readFrameReuse reads one length-prefixed frame into the connection's
// reused buffer. Unlike readFrame it allocates at most once per capacity
// step, not per frame; the response bound keeps a lying header from
// forcing more than respMax bytes.
//
//lfo:hotpath
func (c *MuxConn) readFrameReuse() ([]byte, error) {
	// The header lands in the reused buffer too: a local array would
	// escape through the net.Conn interface, one allocation per frame.
	c.rbuf = growFrameBuf(c.rbuf, 4)
	if _, err := io.ReadFull(c.conn, c.rbuf); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(c.rbuf))
	if n > DefaultMuxResponseMax {
		//lfolint:ignore hotpath-alloc error path: the stream is desynchronized and the connection is about to be torn down
		return nil, &ErrFrameTooLarge{Size: n, Limit: DefaultMuxResponseMax}
	}
	c.rbuf = growFrameBuf(c.rbuf, n)
	if _, err := io.ReadFull(c.conn, c.rbuf[:n]); err != nil {
		return nil, err
	}
	return c.rbuf[:n], nil
}

// Rollout pushes a model to the peer as the given version and waits for
// the acknowledgement: the versioned hot-swap primitive fleet broadcasts
// across shards. The peer swaps atomically, acks version pushes it
// already runs (idempotent re-push), and rejects stale versions.
func (c *MuxConn) Rollout(version uint64, m *gbdt.Model) error {
	var body bytes.Buffer
	if err := m.Save(&body); err != nil {
		return fmt.Errorf("server: serialize model: %w", err)
	}
	if err := writeFrame(c.conn, encodeModelSwap(version, body.Bytes())); err != nil {
		return err
	}
	payload, err := c.readFrameReuse()
	if err != nil {
		return err
	}
	acked, err := decodeModelAck(payload)
	if err != nil {
		return err
	}
	if acked != version {
		return fmt.Errorf("server: model ack version %d, want %d", acked, version)
	}
	return nil
}
