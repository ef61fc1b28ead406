package sketch

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCountMinNeverUnderestimates(t *testing.T) {
	cm := NewCountMin(1024, 4)
	truth := map[uint64]byte{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(300))
		cm.Add(k)
		if truth[k] < 15 {
			truth[k]++
		}
	}
	for k, want := range truth {
		if got := cm.Estimate(k); got < want {
			t.Fatalf("Estimate(%d) = %d < true count %d", k, got, want)
		}
	}
}

func TestCountMinAccurateWhenSparse(t *testing.T) {
	cm := NewCountMin(1<<14, 4)
	for i := uint64(0); i < 10; i++ {
		for j := uint64(0); j <= i; j++ {
			cm.Add(i)
		}
	}
	for i := uint64(0); i < 10; i++ {
		want := byte(i + 1)
		if got := cm.Estimate(i); got != want {
			t.Errorf("Estimate(%d) = %d, want %d (sparse sketch should be exact)", i, got, want)
		}
	}
}

func TestCountMinSaturates(t *testing.T) {
	cm := NewCountMin(64, 2)
	for i := 0; i < 100; i++ {
		cm.Add(7)
	}
	if got := cm.Estimate(7); got != 15 {
		t.Errorf("Estimate = %d, want saturation at 15", got)
	}
}

func TestCountMinReset(t *testing.T) {
	cm := NewCountMin(1<<12, 4)
	for i := 0; i < 8; i++ {
		cm.Add(42)
	}
	before := cm.Estimate(42)
	cm.Reset()
	after := cm.Estimate(42)
	if after != before/2 {
		t.Errorf("Reset: %d -> %d, want %d", before, after, before/2)
	}
}

func TestCountMinEstimateUnseen(t *testing.T) {
	cm := NewCountMin(1<<14, 4)
	for i := uint64(0); i < 5; i++ {
		cm.Add(i)
	}
	if got := cm.Estimate(99999); got != 0 {
		t.Errorf("unseen Estimate = %d, want 0 (sparse)", got)
	}
}

func TestBloomBasics(t *testing.T) {
	b := NewBloom(1<<12, 3)
	if b.Contains(5) {
		t.Error("empty bloom contains 5")
	}
	if b.Add(5) {
		t.Error("first Add reported present")
	}
	if !b.Contains(5) {
		t.Error("bloom lost 5")
	}
	if !b.Add(5) {
		t.Error("second Add reported absent")
	}
	b.Clear()
	if b.Contains(5) {
		t.Error("Clear did not clear")
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	f := func(keys []uint64) bool {
		b := NewBloom(1<<14, 3)
		for _, k := range keys {
			b.Add(k)
		}
		for _, k := range keys {
			if !b.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBloomFalsePositiveRateBounded(t *testing.T) {
	b := NewBloom(1<<14, 3)
	for i := uint64(0); i < 1000; i++ {
		b.Add(i)
	}
	fp := 0
	const probes = 10000
	for i := uint64(1 << 30); i < 1<<30+probes; i++ {
		if b.Contains(i) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Errorf("false positive rate %.4f > 0.05 at 1000/16384 fill", rate)
	}
	set := 0
	for _, w := range b.bitsArr {
		set += bits.OnesCount64(w)
	}
	if fill := float64(set) / float64(len(b.bitsArr)*64); fill <= 0 || fill > 0.25 {
		t.Errorf("fill ratio %.4f out of expected range", fill)
	}
}

func TestNibblePacking(t *testing.T) {
	cm := NewCountMin(64, 1)
	// Adjacent slots must not clobber each other.
	cm.setNibble(0, 4, 9)
	cm.setNibble(0, 5, 13)
	if got := cm.nibble(0, 4); got != 9 {
		t.Errorf("nibble(4) = %d, want 9", got)
	}
	if got := cm.nibble(0, 5); got != 13 {
		t.Errorf("nibble(5) = %d, want 13", got)
	}
	cm.setNibble(0, 4, 2)
	if got := cm.nibble(0, 5); got != 13 {
		t.Errorf("nibble(5) clobbered to %d", got)
	}
}
