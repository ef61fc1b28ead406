package mrc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lfo/internal/gen"
	"lfo/internal/opt"
	"lfo/internal/policy"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// lruPolicy is the LRU baseline of the policy table.
func lruPolicy(t *testing.T, capacity int64) sim.Policy {
	t.Helper()
	p, err := policy.New("lru", capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mkTrace(reqs ...[2]int64) *trace.Trace {
	t := &trace.Trace{}
	for i, r := range reqs {
		t.Requests = append(t.Requests, trace.Request{
			Time: int64(i), ID: trace.ObjectID(r[0]), Size: r[1], Cost: float64(r[1]),
		})
	}
	return t
}

func TestFenwick(t *testing.T) {
	f := newFenwick(8)
	f.Add(0, 5)
	f.Add(3, 2)
	f.Add(7, 9)
	if got := f.Sum(0, 7); got != 16 {
		t.Errorf("Sum(0,7) = %d, want 16", got)
	}
	if got := f.Sum(1, 6); got != 2 {
		t.Errorf("Sum(1,6) = %d, want 2", got)
	}
	f.Add(3, -2)
	if got := f.Sum(1, 6); got != 0 {
		t.Errorf("after removal Sum(1,6) = %d, want 0", got)
	}
	if got := f.Sum(5, 2); got != 0 {
		t.Errorf("empty range = %d, want 0", got)
	}
}

func TestFenwickMatchesBruteForce(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 32
		fw := newFenwick(n)
		ref := make([]int64, n)
		for _, op := range ops {
			i := int(op) % n
			v := int64(op%7) - 3
			fw.Add(i, v)
			ref[i] += v
		}
		for lo := 0; lo < n; lo += 5 {
			for hi := lo; hi < n; hi += 3 {
				var want int64
				for k := lo; k <= hi; k++ {
					want += ref[k]
				}
				if fw.Sum(lo, hi) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCurveHandExample(t *testing.T) {
	// Trace: a(2) b(3) a(2) c(1) b(3).
	// a@2: unique between = b(3); distance = 3 + 2 = 5.
	// b@4: unique between = a(2) + c(1); distance = 3 + 3 = 6.
	tr := mkTrace([2]int64{1, 2}, [2]int64{2, 3}, [2]int64{1, 2}, [2]int64{3, 1}, [2]int64{2, 3})
	c := ComputeLRU(tr)
	// Cache 4: no hits. Cache 5: a hits (1/5 reqs, 2/11 bytes).
	// Cache 6+: both hit (2/5, 5/11).
	if got := c.OHR(4); got != 0 {
		t.Errorf("OHR(4) = %g, want 0", got)
	}
	if got := c.OHR(5); got != 0.2 {
		t.Errorf("OHR(5) = %g, want 0.2", got)
	}
	if got := c.BHR(5); got != 2.0/11.0 {
		t.Errorf("BHR(5) = %g, want %g", got, 2.0/11.0)
	}
	if got := c.OHR(6); got != 0.4 {
		t.Errorf("OHR(6) = %g, want 0.4", got)
	}
	if got := c.BHR(1 << 30); got != 5.0/11.0 {
		t.Errorf("BHR(inf) = %g, want %g", got, 5.0/11.0)
	}
	if got := c.MaxUseful(); got != 6 {
		t.Errorf("MaxUseful = %d, want 6", got)
	}
}

// TestCurveMatchesSimulatorExactly: the Mattson condition is exact for
// byte-capacity LRU, so the curve must agree bit-for-bit with a real LRU
// simulation at any cache size at least as large as the biggest object.
func TestCurveMatchesSimulatorExactly(t *testing.T) {
	cfg := gen.WebMix(20000, 9)
	tr, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	maxSize := tr.ComputeStats().MaxSize
	curve := ComputeLRU(tr)
	for _, size := range []int64{maxSize, maxSize * 4, maxSize * 16, maxSize * 64} {
		m := sim.Run(tr, lruPolicy(t, size), sim.Options{})
		if got, want := curve.OHR(size), m.OHR(); got != want {
			t.Errorf("size %d: curve OHR %.6f != simulated %.6f", size, got, want)
		}
		if got, want := curve.BHR(size), m.BHR(); got != want {
			t.Errorf("size %d: curve BHR %.6f != simulated %.6f", size, got, want)
		}
	}
}

// TestCurveMonotone: hit ratios never decrease with cache size.
func TestCurveMonotone(t *testing.T) {
	tr, err := gen.Generate(gen.CDNMix(10000, 4))
	if err != nil {
		t.Fatal(err)
	}
	curve := ComputeLRU(tr)
	prevB, prevO := -1.0, -1.0
	for _, size := range LogSizes(1<<10, 1<<34, 40) {
		b, o := curve.BHR(size), curve.OHR(size)
		if b < prevB || o < prevO {
			t.Fatalf("curve not monotone at %d", size)
		}
		prevB, prevO = b, o
	}
}

// TestOPTCurveDominatesLRU: at every size, OPT's hit ratio bounds LRU's.
func TestOPTCurveDominatesLRU(t *testing.T) {
	tr, err := gen.Generate(gen.WebMix(5000, 6))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	lru := ComputeLRU(tr)
	sizes := []int64{1 << 18, 1 << 20, 1 << 22}
	optPts, err := ComputeOPT(tr, sizes, opt.Config{Algorithm: opt.AlgoFlow})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sizes {
		if optPts[i].BHR < lru.BHR(s)-1e-9 {
			t.Errorf("size %d: OPT BHR %.4f < LRU %.4f", s, optPts[i].BHR, lru.BHR(s))
		}
	}
}

func TestComputeOPTRejectsBadSize(t *testing.T) {
	tr := mkTrace([2]int64{1, 1})
	if _, err := ComputeOPT(tr, []int64{0}, opt.Config{}); err == nil {
		t.Error("size 0 accepted")
	}
}

func TestLogSizes(t *testing.T) {
	sizes := LogSizes(1024, 1<<20, 11)
	if len(sizes) != 11 {
		t.Fatalf("len = %d", len(sizes))
	}
	if sizes[0] != 1024 || sizes[10] != 1<<20 {
		t.Errorf("endpoints = %d, %d", sizes[0], sizes[10])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("not increasing at %d: %v", i, sizes)
		}
	}
	if got := LogSizes(100, 50, 5); len(got) != 1 || got[0] != 100 {
		t.Errorf("degenerate LogSizes = %v", got)
	}
}

func TestEmptyTraceCurve(t *testing.T) {
	c := ComputeLRU(&trace.Trace{})
	if c.BHR(100) != 0 || c.OHR(100) != 0 || c.MaxUseful() != 0 {
		t.Error("empty curve not zero")
	}
}

// TestCurveColdMissesNeverHit: a trace of distinct objects has an all-zero
// curve at any size.
func TestCurveColdMissesNeverHit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := &trace.Trace{}
	for i := 0; i < 1000; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Time: int64(i), ID: trace.ObjectID(i), Size: 1 + rng.Int63n(1000),
		})
	}
	c := ComputeLRU(tr)
	if c.OHR(1<<40) != 0 {
		t.Error("one-hit-wonder trace produced hits")
	}
}
