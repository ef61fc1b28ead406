package trace

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// paperTrace is the running example from Figure 3 of the paper: four
// objects a=1, b=2, c=3, d=4 with sizes 3, 1, 1, 2.
func paperTrace() *Trace {
	ids := []ObjectID{1, 2, 3, 2, 4, 1, 3, 4, 1, 2, 2, 1}
	sizes := map[ObjectID]int64{1: 3, 2: 1, 3: 1, 4: 2}
	t := &Trace{}
	for i, id := range ids {
		t.Requests = append(t.Requests, Request{Time: int64(i), ID: id, Size: sizes[id], Cost: float64(sizes[id])})
	}
	return t
}

func TestValidateOK(t *testing.T) {
	if err := paperTrace().Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := (&Trace{}).Validate(); err != nil {
		t.Fatalf("Validate(empty) = %v, want nil", err)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		reqs []Request
	}{
		{"time goes backwards", []Request{{Time: 5, ID: 1, Size: 1}, {Time: 4, ID: 2, Size: 1}}},
		{"zero size", []Request{{Time: 0, ID: 1, Size: 0}}},
		{"negative size", []Request{{Time: 0, ID: 1, Size: -3}}},
		{"negative cost", []Request{{Time: 0, ID: 1, Size: 1, Cost: -1}}},
		{"NaN cost", []Request{{Time: 0, ID: 1, Size: 1, Cost: math.NaN()}}},
		{"infinite cost", []Request{{Time: 0, ID: 1, Size: 1, Cost: math.Inf(1)}}},
		{"size change", []Request{{Time: 0, ID: 1, Size: 1}, {Time: 1, ID: 1, Size: 2}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := (&Trace{Requests: tc.reqs}).Validate()
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			if !errors.Is(err, ErrInvalidTrace) {
				t.Fatalf("Validate() error %v does not wrap ErrInvalidTrace", err)
			}
		})
	}
}

func TestWithCostsBHR(t *testing.T) {
	tr := paperTrace()
	for i := range tr.Requests {
		tr.Requests[i].Cost = 42 // garbage to be overwritten
	}
	got := tr.WithCosts(ObjectiveBHR)
	for i, r := range got.Requests {
		if r.Cost != float64(r.Size) {
			t.Errorf("request %d: cost = %g, want size %d", i, r.Cost, r.Size)
		}
	}
	// Original must be untouched.
	if tr.Requests[0].Cost != 42 {
		t.Error("WithCosts mutated the receiver")
	}
}

func TestWithCostsOHR(t *testing.T) {
	got := paperTrace().WithCosts(ObjectiveOHR)
	for i, r := range got.Requests {
		if r.Cost != 1 {
			t.Errorf("request %d: cost = %g, want 1", i, r.Cost)
		}
	}
}

func TestWithCostsCostIsIdentity(t *testing.T) {
	tr := paperTrace()
	if got := tr.WithCosts(ObjectiveCost); got != tr {
		t.Error("WithCosts(ObjectiveCost) should return the receiver")
	}
}

func TestObjectiveString(t *testing.T) {
	tests := []struct {
		o    Objective
		want string
	}{{ObjectiveBHR, "bhr"}, {ObjectiveOHR, "ohr"}, {ObjectiveCost, "cost"}}
	for _, tc := range tests {
		if got := tc.o.String(); got != tc.want {
			t.Errorf("%v.String() = %q, want %q", int(tc.o), got, tc.want)
		}
	}
}

func TestParseObjective(t *testing.T) {
	for _, want := range []Objective{ObjectiveBHR, ObjectiveOHR, ObjectiveCost} {
		got, err := ParseObjective(want.String())
		if err != nil || got != want {
			t.Errorf("ParseObjective(%q) = %v, %v", want.String(), got, err)
		}
	}
	if _, err := ParseObjective("nope"); err == nil {
		t.Error("ParseObjective(nope) = nil error, want error")
	}
}

func TestComputeStats(t *testing.T) {
	s := paperTrace().ComputeStats()
	if s.Requests != 12 {
		t.Errorf("Requests = %d, want 12", s.Requests)
	}
	if s.UniqueObjects != 4 {
		t.Errorf("UniqueObjects = %d, want 4", s.UniqueObjects)
	}
	if s.UniqueBytes != 3+1+1+2 {
		t.Errorf("UniqueBytes = %d, want 7", s.UniqueBytes)
	}
	wantTotal := int64(4*3 + 4*1 + 2*1 + 2*2) // a×4, b×4, c×2, d×2
	if s.TotalBytes != wantTotal {
		t.Errorf("TotalBytes = %d, want %d", s.TotalBytes, wantTotal)
	}
	if s.MinSize != 1 || s.MaxSize != 3 {
		t.Errorf("MinSize,MaxSize = %d,%d, want 1,3", s.MinSize, s.MaxSize)
	}
	if s.OneHitWonders != 0 {
		t.Errorf("OneHitWonders = %d, want 0", s.OneHitWonders)
	}
}

func TestComputeStatsOneHitWonders(t *testing.T) {
	tr := &Trace{Requests: []Request{
		{Time: 0, ID: 1, Size: 10},
		{Time: 1, ID: 2, Size: 20},
		{Time: 2, ID: 1, Size: 10},
	}}
	s := tr.ComputeStats()
	if s.OneHitWonders != 1 {
		t.Errorf("OneHitWonders = %d, want 1", s.OneHitWonders)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := (&Trace{}).ComputeStats()
	if s.Requests != 0 || s.TotalBytes != 0 || s.UniqueObjects != 0 {
		t.Errorf("empty stats = %+v, want zero", s)
	}
}

func TestSliceClamps(t *testing.T) {
	tr := paperTrace()
	tests := []struct {
		lo, hi, want int
	}{
		{0, 12, 12},
		{-5, 3, 3},
		{10, 100, 2},
		{8, 4, 0},
		{0, 0, 0},
	}
	for _, tc := range tests {
		if got := tr.Slice(tc.lo, tc.hi).Len(); got != tc.want {
			t.Errorf("Slice(%d,%d).Len() = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestWindows(t *testing.T) {
	tr := paperTrace() // 12 requests
	ws := tr.Windows(5)
	if len(ws) != 3 {
		t.Fatalf("Windows(5) returned %d windows, want 3", len(ws))
	}
	if ws[0].Len() != 5 || ws[1].Len() != 5 || ws[2].Len() != 2 {
		t.Errorf("window lengths = %d,%d,%d, want 5,5,2", ws[0].Len(), ws[1].Len(), ws[2].Len())
	}
	total := 0
	for _, w := range ws {
		total += w.Len()
	}
	if total != tr.Len() {
		t.Errorf("windows cover %d requests, want %d", total, tr.Len())
	}
}

func TestWindowsPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Windows(0) did not panic")
		}
	}()
	paperTrace().Windows(0)
}

func TestNextRequestIndex(t *testing.T) {
	tr := paperTrace()
	next := tr.NextRequestIndex()
	// Trace: a b c b d a c d a b b a  (indices 0..11)
	want := []int{5, 3, 6, 9, 7, 8, -1, -1, 11, 10, -1, -1}
	for i := range want {
		if next[i] != want[i] {
			t.Errorf("next[%d] = %d, want %d", i, next[i], want[i])
		}
	}
}

func TestPrevRequestIndex(t *testing.T) {
	tr := paperTrace()
	prev := tr.PrevRequestIndex()
	want := []int{-1, -1, -1, 1, -1, 0, 2, 4, 5, 3, 9, 8}
	for i := range want {
		if prev[i] != want[i] {
			t.Errorf("prev[%d] = %d, want %d", i, prev[i], want[i])
		}
	}
}

// TestNextPrevInverse checks that next and prev index maps are inverses:
// if next[i] = j >= 0 then prev[j] = i, and vice versa.
func TestNextPrevInverse(t *testing.T) {
	tr := paperTrace()
	next := tr.NextRequestIndex()
	prev := tr.PrevRequestIndex()
	for i, j := range next {
		if j >= 0 && prev[j] != i {
			t.Errorf("next[%d]=%d but prev[%d]=%d", i, j, j, prev[j])
		}
	}
	for j, i := range prev {
		if i >= 0 && next[i] != j {
			t.Errorf("prev[%d]=%d but next[%d]=%d", j, i, i, next[i])
		}
	}
}

// TestNextPrevInverseProperty extends the inverse check to arbitrary
// request ID sequences.
func TestNextPrevInverseProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		tr := &Trace{}
		for i, id := range ids {
			tr.Requests = append(tr.Requests, Request{Time: int64(i), ID: ObjectID(id), Size: 1, Cost: 1})
		}
		next := tr.NextRequestIndex()
		prev := tr.PrevRequestIndex()
		for i, j := range next {
			if j >= 0 {
				if prev[j] != i || tr.Requests[i].ID != tr.Requests[j].ID {
					return false
				}
				// No intermediate request to the same object.
				for k := i + 1; k < j; k++ {
					if tr.Requests[k].ID == tr.Requests[i].ID {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWindowsProperty: windows always partition the trace exactly.
func TestWindowsProperty(t *testing.T) {
	f := func(n uint8, w uint8) bool {
		if w == 0 {
			return true
		}
		tr := &Trace{}
		for i := 0; i < int(n); i++ {
			tr.Requests = append(tr.Requests, Request{Time: int64(i), ID: 1, Size: 1})
		}
		ws := tr.Windows(int(w))
		total := 0
		for i, win := range ws {
			if win.Len() == 0 {
				return false
			}
			if i < len(ws)-1 && win.Len() != int(w) {
				return false
			}
			total += win.Len()
		}
		return total == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
