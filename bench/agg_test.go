package main

import "testing"

// Three synthetic passes of the same work: each has its own slow elements,
// as interference on a shared box produces them.
func TestFastestIsElementWise(t *testing.T) {
	passes := [][]float64{
		{1, 9, 3, 4},
		{5, 2, 3, 8},
		{1, 2, 7, 4},
	}
	got, err := fastest(passes)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fastest = %v, want %v", got, want)
		}
	}
	if passes[0][1] != 9 {
		t.Fatal("fastest modified its input")
	}
	if _, err := fastest([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("passes of different lengths were accepted")
	}
	if _, err := fastest(nil); err == nil {
		t.Fatal("no passes were accepted")
	}
}

func TestEndToEndUsesFastestElements(t *testing.T) {
	// Four units of service, one handoff, two extra operations. Each pass
	// has its own slow elements; the element-wise fastest has none of them.
	mk := func(setup float64, units, handoffs, extra []float64) pass {
		return pass{setupS: setup, units: units, handoffs: handoffs, extra: extra,
			serveOps: 64, allOps: 96, reqs: 96, hits: 24, bytes: 960, hitBytes: 96, alloc: 9600}
	}
	ms, err := endToEnd([]pass{
		mk(2, []float64{1, 4, 1, 2}, []float64{10}, []float64{1, 3}),
		mk(3, []float64{2, 1, 3, 2}, []float64{8}, []float64{2, 1}),
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"setup_s":            2,
		"serve_per_s":        12.8, // 64 ops / (1+1+1+2) s
		"serve_p90_us":       2e6,  // p90 of the fastest units (1, 1, 1, 2)
		"handoff_s":          8,    // fastest handoff
		"sustained_per_s":    6.4,  // 96 ops / (5 + 8 + 1+1) s
		"bhr":                0.1,  // 96/960
		"ohr":                0.25, // 24/96
		"alloc_bytes_per_op": 100,  // 9600/96
		"live_heap_mb":       5,
	}
	if len(ms) != len(want) {
		t.Fatalf("%d metrics, want %d", len(ms), len(want))
	}
	for _, m := range ms {
		if w, ok := want[m.Name]; !ok || m.Value != w {
			t.Errorf("%s = %v, want %v", m.Name, m.Value, w)
		}
	}
}

func TestPercentileAndSpread(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(v, 0.9); got != 5 {
		t.Errorf("p90 = %v, want 5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := spread([]float64{2, 3, 2.5}); got != 0.5 {
		t.Errorf("spread = %v, want 0.5", got)
	}
}
