// Package server implements LFO's prediction service: a TCP server that
// evaluates the trained admission model over a length-prefixed binary
// protocol, plus the matching client. It backs the paper's throughput
// experiment (Fig 7 — "can LFO predict fast enough for production use?")
// and demonstrates how a CDN frontend would consult an LFO model over the
// network.
//
// Wire format (all integers little-endian):
//
//	request:  u32 payloadLen | u8 op | u32 rows | rows×dim f64 features
//	response: u32 payloadLen | u8 op | u32 rows | rows f64 probabilities
//	error:    u32 payloadLen | u8 opError | u32 msgLen | msg bytes
//
// The feature dimension is fixed per connection to features.Dim.
package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Protocol opcodes.
const (
	opPredict = 1
	// opAdmit carries raw request tuples (time, id, size, cost, free)
	// instead of feature vectors; the server tracks per-object history
	// itself. 40 bytes per request instead of 424, at the cost of a
	// stateful (per-connection) session.
	opAdmit = 2
	// opMux wraps an opPredict/opAdmit payload in a correlation-ID
	// envelope so several batches can be in flight per connection; see
	// mux.go.
	opMux = 3
	// opModel is the versioned model hot-swap request/ack; see mux.go.
	opModel = 4
	opError = 0xff
)

// admitRowBytes is the wire size of one opAdmit tuple.
const admitRowBytes = 8 * 5

// AdmitRequest is one raw request tuple for the compact protocol.
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

// encodeAdmitRequest builds an opAdmit frame.
func encodeAdmitRequest(reqs []AdmitRequest) []byte {
	buf := make([]byte, 5+len(reqs)*admitRowBytes)
	buf[0] = opAdmit
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(reqs)))
	off := 5
	for _, r := range reqs {
		binary.LittleEndian.PutUint64(buf[off:], uint64(r.Time))
		binary.LittleEndian.PutUint64(buf[off+8:], r.ID)
		binary.LittleEndian.PutUint64(buf[off+16:], uint64(r.Size))
		binary.LittleEndian.PutUint64(buf[off+24:], math.Float64bits(r.Cost))
		binary.LittleEndian.PutUint64(buf[off+32:], uint64(r.Free))
		off += admitRowBytes
	}
	return buf
}

// decodeAdmitRequest parses an opAdmit frame, into the storage of into when
// that is large enough.
func decodeAdmitRequest(payload []byte, into []AdmitRequest) ([]AdmitRequest, error) {
	if len(payload) < 5 || payload[0] != opAdmit {
		return nil, fmt.Errorf("server: bad admit frame")
	}
	n := int(binary.LittleEndian.Uint32(payload[1:5]))
	if len(payload) != 5+n*admitRowBytes {
		return nil, fmt.Errorf("server: admit frame length %d, want %d for %d rows", len(payload), 5+n*admitRowBytes, n)
	}
	reqs := slices.Grow(into[:0], n)[:n]
	off := 5
	for i := range reqs {
		reqs[i] = AdmitRequest{
			Time: int64(binary.LittleEndian.Uint64(payload[off:])),
			ID:   binary.LittleEndian.Uint64(payload[off+8:]),
			Size: int64(binary.LittleEndian.Uint64(payload[off+16:])),
			Cost: math.Float64frombits(binary.LittleEndian.Uint64(payload[off+24:])),
			Free: int64(binary.LittleEndian.Uint64(payload[off+32:])),
		}
		off += admitRowBytes
	}
	return reqs, nil
}

// maxFramePayload is the default bound on a frame's payload, keeping a
// malicious or broken peer from forcing huge allocations (64 MiB ≈ 150k
// rows). Server.MaxFramePayload overrides it per server.
const maxFramePayload = 64 << 20

// frameAllocChunk is the initial/step allocation readFrame uses while a
// frame's bytes arrive: memory is committed as data shows up, so a lying
// length header cannot reserve the full frame bound with a 4-byte write.
const frameAllocChunk = 64 << 10

// ErrFrameTooLarge wraps frame-size-limit violations; the stream is
// desynchronized afterwards (the oversized payload is unread), so the
// connection must be closed.
type ErrFrameTooLarge struct {
	Size, Limit int
}

func (e *ErrFrameTooLarge) Error() string {
	return fmt.Sprintf("server: frame payload %d exceeds limit %d", e.Size, e.Limit)
}

// writeFrame writes a length-prefixed frame.
//
//lfo:hotpath
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	//lfolint:ignore hotpath-alloc io.Writer is the wire boundary (a net.Conn at runtime); there is no static callee to verify
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	//lfolint:ignore hotpath-alloc io.Writer is the wire boundary (a net.Conn at runtime); there is no static callee to verify
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame of at most max payload bytes.
// The payload buffer grows geometrically as bytes actually arrive rather
// than being allocated up front from the (untrusted) length header.
//
//lfo:hotpath
func readFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > max {
		//lfolint:ignore hotpath-alloc error path: the stream is desynchronized and the connection is about to be torn down
		return nil, &ErrFrameTooLarge{Size: n, Limit: max}
	}
	if n <= frameAllocChunk {
		//lfolint:ignore hotpath-alloc the payload escapes to the caller by contract: one bounded allocation per frame
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, err
		}
		return payload, nil
	}
	//lfolint:ignore hotpath-alloc the payload escapes to the caller by contract: one bounded allocation per frame
	payload := make([]byte, frameAllocChunk)
	filled := 0
	for filled < n {
		if filled == len(payload) {
			grown := 2 * len(payload)
			if grown > n {
				grown = n
			}
			//lfolint:ignore hotpath-alloc geometric regrowth while the oversized payload actually arrives; O(log n) allocations per large frame
			next := make([]byte, grown)
			copy(next, payload)
			payload = next
		}
		m, err := io.ReadFull(r, payload[filled:])
		filled += m
		if err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// encodePredictRequest builds a predict frame from a flat row-major
// feature matrix.
func encodePredictRequest(rows []float64, dim int) []byte {
	n := len(rows) / dim
	buf := make([]byte, 5+len(rows)*8)
	buf[0] = opPredict
	binary.LittleEndian.PutUint32(buf[1:5], uint32(n))
	for i, v := range rows {
		binary.LittleEndian.PutUint64(buf[5+i*8:], math.Float64bits(v))
	}
	return buf
}

// decodePredictRequest parses a predict frame into a flat feature matrix.
func decodePredictRequest(payload []byte, dim int) ([]float64, error) {
	if len(payload) < 5 {
		return nil, fmt.Errorf("server: short predict frame (%d bytes)", len(payload))
	}
	if payload[0] != opPredict {
		return nil, fmt.Errorf("server: unexpected opcode %#x", payload[0])
	}
	n := int(binary.LittleEndian.Uint32(payload[1:5]))
	want := 5 + n*dim*8
	if len(payload) != want {
		return nil, fmt.Errorf("server: predict frame length %d, want %d for %d rows × dim %d", len(payload), want, n, dim)
	}
	rows := make([]float64, n*dim)
	for i := range rows {
		rows[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[5+i*8:]))
	}
	return rows, nil
}

// encodePredictResponse builds a response frame from probabilities.
func encodePredictResponse(probs []float64) []byte {
	buf := make([]byte, 5+len(probs)*8)
	buf[0] = opPredict
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(probs)))
	for i, v := range probs {
		binary.LittleEndian.PutUint64(buf[5+i*8:], math.Float64bits(v))
	}
	return buf
}

// decodePredictResponse parses a response frame.
func decodePredictResponse(payload []byte) ([]float64, error) {
	if len(payload) < 5 {
		return nil, fmt.Errorf("server: short response frame (%d bytes)", len(payload))
	}
	switch payload[0] {
	case opPredict:
	case opError:
		n := int(binary.LittleEndian.Uint32(payload[1:5]))
		if 5+n > len(payload) {
			n = len(payload) - 5
		}
		return nil, fmt.Errorf("server: remote error: %s", payload[5:5+n])
	default:
		return nil, fmt.Errorf("server: unexpected opcode %#x", payload[0])
	}
	n := int(binary.LittleEndian.Uint32(payload[1:5]))
	if len(payload) != 5+n*8 {
		return nil, fmt.Errorf("server: response length %d, want %d for %d rows", len(payload), 5+n*8, n)
	}
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[5+i*8:]))
	}
	return probs, nil
}

// encodeError builds an error frame.
func encodeError(msg string) []byte {
	buf := make([]byte, 5+len(msg))
	buf[0] = opError
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(msg)))
	copy(buf[5:], msg)
	return buf
}
