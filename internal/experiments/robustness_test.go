package experiments

import (
	"math"
	"testing"

	"lfo/internal/gen"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// baseBHR is the robustness table's former private replay, kept as the
// oracle of the runner's base-only BHR: it replays the (possibly
// contaminated) trace but measures the byte hit ratio over base requests
// only.
func baseBHR(tr *trace.Trace, p sim.Policy, warmup int) float64 {
	var hitBytes, reqBytes int64
	for i, r := range tr.Requests {
		hit := p.Request(r)
		if i < warmup || gen.IsScan(r.ID) { // skip warmup and injected objects
			continue
		}
		reqBytes += r.Size
		if hit {
			hitBytes += r.Size
		}
	}
	if reqBytes == 0 {
		return 0
	}
	return float64(hitBytes) / float64(reqBytes)
}

// TestRobustnessMatchesBaseBHR: every robustness row's clean and scanned
// BHR, read off sim.Run with the scan bytes taken out, is the oracle's
// value bit for bit.
func TestRobustnessMatchesBaseBHR(t *testing.T) {
	cfg := quick(t)
	cfg.Requests = 12000
	cfg.Window = 3000
	cfg.CacheSize = 8 << 20
	rs, err := Robustness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := cfg.workload("stable")
	if err != nil {
		t.Fatal(err)
	}
	scanned := gen.WithScans(base, robustnessScans)
	line := robustnessLineup(cfg)
	if len(rs) != len(line) {
		t.Fatalf("rows = %d, want %d", len(rs), len(line))
	}
	oracle := func(tr *trace.Trace, e entry) float64 {
		p, err := e.build()
		if err != nil {
			t.Fatal(err)
		}
		return baseBHR(tr, p, cfg.Requests/5)
	}
	for i, e := range line {
		clean, dirty := oracle(base, e), oracle(scanned, e)
		if math.Float64bits(rs[i].CleanBHR) != math.Float64bits(clean) {
			t.Errorf("%s: clean BHR %v, oracle %v", rs[i].Policy, rs[i].CleanBHR, clean)
		}
		if math.Float64bits(rs[i].ScannedBHR) != math.Float64bits(dirty) {
			t.Errorf("%s: scanned BHR %v, oracle %v", rs[i].Policy, rs[i].ScannedBHR, dirty)
		}
		if dirty == clean {
			t.Errorf("%s: scans left the BHR at %v", rs[i].Policy, clean)
		}
	}
}
