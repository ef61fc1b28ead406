package trace

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadBasic(t *testing.T) {
	in := "# comment\n1 100 32768\n2 101 500 2.5\n\n3 100 32768\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	want := []Request{
		{Time: 1, ID: 100, Size: 32768, Cost: 32768},
		{Time: 2, ID: 101, Size: 500, Cost: 2.5},
		{Time: 3, ID: 100, Size: 32768, Cost: 32768},
	}
	if !reflect.DeepEqual(tr.Requests, want) {
		t.Errorf("Read = %+v, want %+v", tr.Requests, want)
	}
}

func TestReadErrors(t *testing.T) {
	tests := []struct{ name, in string }{
		{"too few fields", "1 2\n"},
		{"bad time", "x 2 3\n"},
		{"bad id", "1 x 3\n"},
		{"bad size", "1 2 x\n"},
		{"bad cost", "1 2 3 x\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tc.in)); err == nil {
				t.Errorf("Read(%q) = nil error, want error", tc.in)
			}
		})
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := paperTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got.Requests, tr.Requests) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got.Requests, tr.Requests)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	tr := paperTrace()
	if err := WriteFile(path, tr); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got.Requests, tr.Requests) {
		t.Error("file round trip mismatch")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("ReadFile(missing) = nil error")
	}
}

// TestReadRejectsInvalidTraces: every line below parses, and every trace
// breaks an invariant Validate names — Read must refuse it with
// ErrInvalidTrace instead of handing a cache a negative size or OPT a
// division by zero.
func TestReadRejectsInvalidTraces(t *testing.T) {
	tests := []struct{ name, in string }{
		{"zero size", "1 2 0\n"},
		{"negative size", "1 2 -3 1\n"},
		{"negative cost", "1 2 3 -1\n"},
		{"NaN cost", "1 2 3 NaN\n"},
		{"infinite cost", "1 2 3 +Inf\n"},
		{"time runs backwards", "5 1 10\n4 2 10\n"},
		{"size changes", "1 7 10\n2 7 11\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := Read(strings.NewReader(tc.in))
			if !errors.Is(err, ErrInvalidTrace) {
				t.Errorf("Read(%q) = %+v, %v; want ErrInvalidTrace", tc.in, tr, err)
			}
		})
	}
}

// TestTextRoundTripProperty round-trips random valid traces through the
// text codec: Write's %g is the shortest form that parses back to the same
// float64.
func TestTextRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{}
		tm := int64(0)
		for i := 0; i < int(n); i++ {
			tm += rng.Int63n(10)
			id := ObjectID(rng.Uint64())
			tr.Requests = append(tr.Requests, Request{
				Time: tm,
				ID:   id,
				Size: 1 + int64(id%(1<<30)),
				Cost: rng.Float64() * 1e6,
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		return err == nil && len(got.Requests) == len(tr.Requests) &&
			(len(tr.Requests) == 0 || reflect.DeepEqual(got.Requests, tr.Requests))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// FuzzTraceRead: whatever the bytes, Read either refuses them or returns a
// trace that validates and survives Write then Read unchanged, bit for bit.
// The seed corpus is committed under testdata/fuzz/FuzzTraceRead.
func FuzzTraceRead(f *testing.F) {
	f.Add([]byte("# comment\n1 100 32768\n2 101 500 2.5\n\n3 100 32768\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Read returned a trace that does not validate: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read refused what Write wrote: %v\n%s", err, buf.Bytes())
		}
		if len(again.Requests) != len(tr.Requests) {
			t.Fatalf("round trip: %d requests became %d", len(tr.Requests), len(again.Requests))
		}
		for i, r := range tr.Requests {
			g := again.Requests[i]
			if g.Time != r.Time || g.ID != r.ID || g.Size != r.Size || math.Float64bits(g.Cost) != math.Float64bits(r.Cost) {
				t.Fatalf("round trip: request %d %+v became %+v", i, r, g)
			}
		}
	})
}
