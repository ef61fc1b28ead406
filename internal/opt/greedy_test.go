package opt

import (
	"reflect"
	"sort"
	"testing"

	"lfo/internal/gen"
	"lfo/internal/trace"
)

// TestOPTDeterministicAcrossWorkers: Compute labels a window in one
// sequential pass, so the full Result is byte-identical for every Workers
// value (the field only spreads mrc.ComputeOPT's cache sizes), for the
// exact path and for the greedy alike.
func TestOPTDeterministicAcrossWorkers(t *testing.T) {
	tr, err := gen.Generate(gen.CDNMix(6000, 19))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	for _, algo := range []Algorithm{AlgoFlow, AlgoGreedy} {
		base, err := Compute(tr, Config{CacheSize: 8 << 20, Algorithm: algo, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 0} {
			res, err := Compute(tr, Config{CacheSize: 8 << 20, Algorithm: algo, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, res) {
				t.Fatalf("%v, workers=%d: Result differs from workers=1", algo, workers)
			}
		}
	}
}

// TestGreedyMatchesArrayScan: the greedy's Admit equals a plain reference
// that sorts the intervals by rank (descending, from ascending on ties)
// and admits one iff the largest occupancy over [from, to) plus its size
// is at most the capacity — on a 40 000-request CDN-mix window and on a
// unit-size window, where admissions land exactly on the capacity.
func TestGreedyMatchesArrayScan(t *testing.T) {
	cdn, err := gen.Generate(gen.CDNMix(40000, 3))
	if err != nil {
		t.Fatal(err)
	}
	unit, err := gen.Generate(gen.UnitMix(3000, 7, 200, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tr       *trace.Trace
		capacity int64
	}{{cdn, 64 << 20}, {unit.WithCosts(trace.ObjectiveOHR), 20}} {
		res, err := Compute(c.tr, Config{CacheSize: c.capacity, Algorithm: AlgoGreedy})
		if err != nil {
			t.Fatal(err)
		}
		want := arrayScanGreedy(c.tr, c.capacity)
		for i := range want {
			if res.Admit[i] != want[i] {
				t.Fatalf("%d requests: Admit[%d] = %v, reference %v", c.tr.Len(), i, res.Admit[i], want[i])
			}
		}
	}
}

// arrayScanGreedy is the greedy labeler written as plainly as possible:
// per-request occupancy in an array, scanned for every interval.
func arrayScanGreedy(tr *trace.Trace, capacity int64) []bool {
	next := tr.NextRequestIndex()
	var from []int
	rank := make([]float64, tr.Len())
	for i, r := range tr.Requests {
		if j := next[i]; j >= 0 {
			from = append(from, i)
			rank[i] = tr.Requests[j].Cost / (float64(r.Size) * float64(j-i))
		}
	}
	sort.Slice(from, func(a, b int) bool {
		if rank[from[a]] != rank[from[b]] {
			return rank[from[a]] > rank[from[b]]
		}
		return from[a] < from[b]
	})
	occ := make([]int64, tr.Len())
	admit := make([]bool, tr.Len())
	for _, i := range from {
		size, peak := tr.Requests[i].Size, int64(0)
		for s := i; s < next[i]; s++ {
			peak = max(peak, occ[s])
		}
		if peak+size > capacity {
			continue
		}
		for s := i; s < next[i]; s++ {
			occ[s] += size
		}
		admit[i] = true
	}
	return admit
}

// TestIntervalAccounting: exact + greedy interval counts partition the
// solved set, whichever solver ran, and rank selection's drops are the
// rest.
func TestIntervalAccounting(t *testing.T) {
	tr, err := gen.Generate(gen.CDNMix(5000, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []trace.Objective{trace.ObjectiveBHR, trace.ObjectiveOHR} {
		res, err := Compute(tr.WithCosts(obj), Config{CacheSize: 8 << 20, Algorithm: AlgoFlow, RankFraction: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.FlowIntervals + res.GreedyIntervals; got != res.Solved {
			t.Errorf("%v: FlowIntervals+GreedyIntervals = %d, want Solved = %d", obj, got, res.Solved)
		}
		if res.FlowIntervals != 0 && res.GreedyIntervals != 0 {
			t.Errorf("%v: %d exact and %d greedy intervals in one window", obj, res.FlowIntervals, res.GreedyIntervals)
		}
		if got := res.DroppedIntervals(); got != res.Intervals-res.Solved || got == 0 {
			t.Errorf("%v: DroppedIntervals = %d of %d, %d solved", obj, got, res.Intervals, res.Solved)
		}
		checkFeasible(t, tr, res.Admit, 8<<20)
	}
}
