// Package server implements LFO's prediction service: a TCP server that
// evaluates the trained admission model over a length-prefixed binary
// protocol, plus two clients of it — Client, the bare round trip (one call
// at a time under an I/O deadline, no retries), and MuxConn, which keeps
// several batches in flight on one connection (internal/fleet drives it
// and owns failover and fallback). It backs the paper's
// throughput experiment (Fig 7 — "can LFO predict fast enough for
// production use?") and demonstrates how a CDN frontend would consult an
// LFO model over the network.
//
// Wire format (all integers little-endian). Every frame, request or reply,
// is one header and a body:
//
//	u32 len | u8 op | u64 tag | body          (len counts op, tag and body)
//
//	request                                  reply, under the same tag
//	opAdmit    rows × (time, id, size,       opProbs    rows f64 probabilities
//	           cost, free) 8 B each
//	opModel    gob model; tag = version      opModel    empty
//	                                         opError    message bytes
//
// The server builds each row's features itself, from the per-connection
// history of the tuples it was sent. The tag of an admit request is its
// correlation ID; a model push is tagged with the version it deploys. The
// server answers a connection's frames strictly in order, each with the
// tag of the request it answers, so a client can keep several requests in
// flight and prove that no reply was paired with the wrong one. Both ends
// read through a per-connection buffer, and the server writes the replies
// to all the complete requests it holds in one Write, so a pipeline
// window costs each end one read and one write. Errors the
// server sends unasked (a connection or frame limit, just before it closes
// the connection) carry tag 0.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Protocol opcodes.
const (
	// opProbs is the reply to an admit batch: one probability per row.
	opProbs = 1
	// opAdmit carries raw request tuples; the server tracks per-object
	// history itself, in a stateful (per-connection) session.
	opAdmit = 2
	// opModel is the versioned model hot-swap request and its ack.
	opModel = 3
	opError = 0xff
)

// hdrBytes is a frame's header: the length word, the opcode and the tag.
const hdrBytes = 4 + 1 + 8

// admitRowBytes is the wire size of one opAdmit tuple.
const admitRowBytes = 8 * 5

// AdmitRequest is one raw request tuple of an admit batch.
type AdmitRequest struct {
	// Time, ID, Size, Cost mirror trace.Request fields.
	Time int64
	ID   uint64
	Size int64
	Cost float64
	// Free is the requesting frontend's current free cache bytes (the
	// §2.2 free-bytes feature).
	Free int64
}

// maxFramePayload is the default bound on what follows a frame's length
// word, on both ends, keeping a malicious or broken peer from forcing huge
// allocations (64 MiB ≈ 1.6M admit rows). Server.MaxFramePayload
// overrides it per server.
const maxFramePayload = 64 << 20

// frameAllocChunk is how far ahead of the bytes that have arrived readFrame
// commits memory: a lying length header cannot reserve the full frame
// bound with a 4-byte write.
const frameAllocChunk = 64 << 10

// connBufBytes is the read buffer each end of a connection reads frames
// through: one read takes a frame's header, its body and whatever frames
// the peer queued behind it. 16 KiB holds a whole default pipeline window
// of requests (4 batches of 64 rows, 4×2573 bytes), so a server answers
// the window from one read; a larger frame is read through it in pieces.
const connBufBytes = 16 << 10

// newConnReader returns the buffered reader of one connection end.
func newConnReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, connBufBytes) }

// frameBuffered reports whether br holds a complete frame, header and
// body, so that reading it takes no read from the connection. Frames
// larger than the buffer never do.
func frameBuffered(br *bufio.Reader) bool {
	//lfolint:ignore hotpath-alloc bufio.Reader.Buffered is the difference of two of its fields
	n := br.Buffered()
	if n < 4 {
		return false
	}
	//lfolint:ignore hotpath-alloc Peek of bytes already buffered returns a slice of the buffer and reads nothing
	word, _ := br.Peek(4) // buffered: no read, no error
	return 4+int(binary.LittleEndian.Uint32(word)) <= n
}

// ErrFrameTooLarge wraps frame-size-limit violations; the stream is
// desynchronized afterwards (the oversized payload is unread), so the
// connection must be closed.
type ErrFrameTooLarge struct {
	Size, Limit int
}

func (e *ErrFrameTooLarge) Error() string {
	return fmt.Sprintf("server: frame payload %d exceeds limit %d", e.Size, e.Limit)
}

// Codec errors are predeclared so the pipelined read path does not
// allocate to report them.
var (
	errShortFrame = errors.New("server: frame shorter than its header")
	errRowShape   = errors.New("server: frame body is not a whole number of rows")
	errOpcode     = errors.New("server: unexpected opcode")
)

// remoteError is an opError reply: the peer understood the request and
// refused it, so the stream is still in step.
type remoteError string

func (e remoteError) Error() string { return "server: remote error: " + string(e) }

// frame is one frame off the wire. body aliases the buffer readFrame read
// it into and is valid until the next read into that buffer.
type frame struct {
	op   byte
	tag  uint64
	body []byte
}

// readFrame reads one frame of at most limit bytes after its length word into
// *buf, the caller's reused buffer, and grows that buffer only as the
// frame's bytes actually arrive (up to a chunk, or as much again as has
// arrived, ahead of them): a header claiming 4 GiB costs nothing until
// 4 GiB are sent. This is the only function that reads frames off a
// connection; both ends call it on the connection's buffered reader
// (newConnReader), so a frame already buffered costs no read.
//
//lfo:hotpath
func readFrame(r io.Reader, buf *[]byte, limit int) (frame, error) {
	// The length word lands in *buf too: a local array would escape
	// through the io.Reader, one allocation per frame.
	b := grow((*buf)[:0], 4)
	*buf = b
	if _, err := io.ReadFull(r, b); err != nil {
		return frame{}, err
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > limit {
		//lfolint:ignore hotpath-alloc error path: the stream is desynchronized and the connection is about to be torn down
		return frame{}, &ErrFrameTooLarge{Size: n, Limit: limit}
	}
	if n < hdrBytes-4 {
		return frame{}, errShortFrame
	}
	for total := 4 + n; len(b) < total; {
		step := total - len(b)
		if total > cap(b) {
			step = min(step, max(frameAllocChunk, len(b)))
		}
		filled := len(b)
		b = grow(b, step)
		*buf = b
		if _, err := io.ReadFull(r, b[filled:]); err != nil {
			return frame{}, err
		}
	}
	return frame{op: b[4], tag: binary.LittleEndian.Uint64(b[5:]), body: b[hdrBytes:]}, nil
}

// grow extends s by n elements, reallocating only when its capacity is
// short: each reused buffer of the codec stops allocating once it reaches
// the largest frame or batch its connection has seen.
//
//lfo:hotpath
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s[:len(s)+n]
	}
	//lfolint:ignore hotpath-alloc amortized: a connection's buffers reach their high-water mark after its first few frames and are reused thereafter
	next := make([]T, len(s)+n, max(len(s)+n, 2*cap(s)))
	copy(next, s)
	return next
}

// appendFrame appends the header of a frame with a bodyLen-byte body and
// room for that body, and returns the extended buffer and the body to fill.
//
//lfo:hotpath
func appendFrame(b []byte, op byte, tag uint64, bodyLen int) ([]byte, []byte) {
	off := len(b)
	b = grow(b, hdrBytes+bodyLen)
	binary.LittleEndian.PutUint32(b[off:], uint32(hdrBytes-4+bodyLen))
	b[off+4] = op
	binary.LittleEndian.PutUint64(b[off+5:], tag)
	return b, b[off+hdrBytes:]
}

// appendProbs appends an opProbs reply: one probability per request row.
//
//lfo:hotpath
func appendProbs(b []byte, tag uint64, v []float64) []byte {
	b, body := appendFrame(b, opProbs, tag, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(body[8*i:], math.Float64bits(x))
	}
	return b
}

// appendAdmit appends an opAdmit frame.
//
//lfo:hotpath
func appendAdmit(b []byte, tag uint64, reqs []AdmitRequest) []byte {
	b, body := appendFrame(b, opAdmit, tag, admitRowBytes*len(reqs))
	for i := range reqs {
		r, w := &reqs[i], body[admitRowBytes*i:]
		binary.LittleEndian.PutUint64(w, uint64(r.Time))
		binary.LittleEndian.PutUint64(w[8:], r.ID)
		binary.LittleEndian.PutUint64(w[16:], uint64(r.Size))
		binary.LittleEndian.PutUint64(w[24:], math.Float64bits(r.Cost))
		binary.LittleEndian.PutUint64(w[32:], uint64(r.Free))
	}
	return b
}

// appendRaw appends a frame whose body is opaque bytes: an opModel push
// (a saved model) or ack (empty), or an opError message.
func appendRaw(b []byte, op byte, tag uint64, body []byte) []byte {
	b, w := appendFrame(b, op, tag, len(body))
	copy(w, body)
	return b
}

// decodeFloats decodes an opProbs body into the storage of into.
//
//lfo:hotpath
func decodeFloats(body []byte, into []float64) ([]float64, error) {
	if len(body)%8 != 0 {
		return nil, errRowShape
	}
	v := grow(into[:0], len(body)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return v, nil
}

// decodeAdmit decodes an opAdmit body into the storage of into.
//
//lfo:hotpath
func decodeAdmit(body []byte, into []AdmitRequest) ([]AdmitRequest, error) {
	if len(body)%admitRowBytes != 0 {
		return nil, errRowShape
	}
	reqs := grow(into[:0], len(body)/admitRowBytes)
	for i := range reqs {
		w := body[admitRowBytes*i:]
		reqs[i] = AdmitRequest{
			Time: int64(binary.LittleEndian.Uint64(w)),
			ID:   binary.LittleEndian.Uint64(w[8:]),
			Size: int64(binary.LittleEndian.Uint64(w[16:])),
			Cost: math.Float64frombits(binary.LittleEndian.Uint64(w[24:])),
			Free: int64(binary.LittleEndian.Uint64(w[32:])),
		}
	}
	return reqs, nil
}
