package server

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestFrameGolden pins the bytes of one frame of each request op and of
// each reply kind. DESIGN.md's wire-protocol table and the fleet tests'
// stubConn, which speaks the protocol with constants of its own, describe
// exactly these bytes: a layout change shows here first.
func TestFrameGolden(t *testing.T) {
	const tag8 = "0800000000000000"
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"admit request", appendAdmit(nil, 8, []AdmitRequest{{Time: 1, ID: 2, Size: 3, Cost: 4, Free: 5}}),
			"31000000" + "02" + tag8 + "0100000000000000" + "0200000000000000" + "0300000000000000" + "0000000000001040" + "0500000000000000"},
		{"model push", appendRaw(nil, opModel, 3, []byte{0xde, 0xad}),
			"0b000000" + "03" + "0300000000000000" + "dead"},
		{"probabilities", appendProbs(nil, 8, []float64{0.25, 0.75}),
			"19000000" + "01" + tag8 + "000000000000d03f" + "000000000000e83f"},
		{"model ack", appendRaw(nil, opModel, 3, nil),
			"09000000" + "03" + "0300000000000000"},
		{"error", appendRaw(nil, opError, 8, []byte("boom")),
			"0d000000" + "ff" + tag8 + "626f6f6d"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestMuxEncodeDecodeIdentity is the codec property test: for seeded
// random batches and tags, encode → read → decode is the identity for
// admit requests and probability replies.
func TestMuxEncodeDecodeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	var buf []byte
	read := func(wire []byte, op byte, tag uint64) []byte {
		t.Helper()
		f, err := readFrame(bytes.NewReader(wire), &buf, maxFramePayload)
		if err != nil || f.op != op || f.tag != tag {
			t.Fatalf("read back op %#x tag %d err %v, want op %#x tag %d", f.op, f.tag, err, op, tag)
		}
		return f.body
	}
	for iter := 0; iter < 200; iter++ {
		tag := rng.Uint64()
		n := rng.Intn(65)

		reqs := randAdmitBatch(rng, n)
		gotReqs, err := decodeAdmit(read(appendAdmit(nil, tag, reqs), opAdmit, tag), nil)
		if err != nil || len(gotReqs) != n {
			t.Fatalf("iter %d: %d admit rows, err %v, want %d", iter, len(gotReqs), err, n)
		}
		for i := range reqs {
			if gotReqs[i] != reqs[i] {
				t.Fatalf("iter %d row %d: %+v != %+v", iter, i, gotReqs[i], reqs[i])
			}
		}

		probs := make([]float64, n)
		for i := range probs {
			probs[i] = rng.NormFloat64() * 1000
		}
		got, err := decodeFloats(read(appendProbs(nil, tag^0x5555, probs), opProbs, tag^0x5555), nil)
		if err != nil || len(got) != len(probs) {
			t.Fatalf("iter %d: %d floats, err %v, want %d", iter, len(got), err, len(probs))
		}
		for i := range probs {
			if math.Float64bits(got[i]) != math.Float64bits(probs[i]) {
				t.Fatalf("iter %d float %d: %v != %v", iter, i, got[i], probs[i])
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	f, err := readFrame(bytes.NewReader(appendRaw(nil, opModel, 42, []byte{1, 2, 3, 4, 5})), &buf, maxFramePayload)
	if err != nil {
		t.Fatal(err)
	}
	if f.op != opModel || f.tag != 42 || !bytes.Equal(f.body, []byte{1, 2, 3, 4, 5}) {
		t.Errorf("round trip op %#x tag %d body %v", f.op, f.tag, f.body)
	}
}

func TestReadFrameRejectsHuge(t *testing.T) {
	var buf []byte
	_, err := readFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), &buf, maxFramePayload) // 4 GiB claimed
	var tooLarge *ErrFrameTooLarge
	if !errors.As(err, &tooLarge) {
		t.Errorf("huge frame: %v", err)
	}
}

func TestAdmitCodecRoundTrip(t *testing.T) {
	reqs := []AdmitRequest{
		{Time: 5, ID: 9, Size: 100, Cost: 2.5, Free: 777},
		{Time: 6, ID: 10, Size: 200, Cost: 3.5, Free: 0},
	}
	dec, err := decodeAdmit(appendAdmit(nil, 1, reqs)[hdrBytes:], nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if dec[i] != reqs[i] {
			t.Fatalf("row %d: %+v != %+v", i, dec[i], reqs[i])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := decodeFloats(make([]byte, 12), nil); err != errRowShape {
		t.Errorf("ragged probabilities: %v", err)
	}
	if _, err := decodeAdmit(make([]byte, admitRowBytes+1), nil); err != errRowShape {
		t.Errorf("ragged admit tuples: %v", err)
	}
	var buf []byte
	if _, err := readFrame(bytes.NewReader([]byte{4, 0, 0, 0, opAdmit, 1, 2, 3}), &buf, maxFramePayload); err != errShortFrame {
		t.Errorf("frame shorter than its header: %v", err)
	}
	mc := NewMuxConn(&scriptConn{r: bytes.NewReader(appendRaw(nil, opError, 3, []byte("boom")))})
	if tag, _, err := mc.ReadResponse(); tag != 3 || err == nil || !strings.Contains(err.Error(), "remote error: boom") {
		t.Errorf("error frame read as tag %d, err %v", tag, err)
	}
}
