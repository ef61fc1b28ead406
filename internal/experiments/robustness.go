package experiments

import (
	"fmt"

	"lfo/internal/gen"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// RobustnessResult reports one policy's BHR on clean and scan-contaminated
// traffic.
type RobustnessResult struct {
	Policy     string
	CleanBHR   float64
	ScannedBHR float64
	// Degradation is 1 − scanned/clean: the share of hit bytes the scan
	// attack costs the policy.
	Degradation float64
}

// robustnessScans contaminates the robustness workload; hefty scan
// objects maximize pollution.
var robustnessScans = gen.ScanConfig{Every: 20, Burst: 5, ObjectSize: 256 << 10}

// robustnessLineup is the robustness table's policies, in row order.
func robustnessLineup(cfg Config) []entry {
	return append(cfg.baselines("lru", "fifo", "s4lru", "gdsf", "tinylfu", "adaptsize"), lfoEntry("", cfg.lfoConfig()))
}

// Robustness evaluates §1's motivation that CDN policies must survive
// "unexpected (or even adversarial) traffic patterns": a web workload is
// contaminated with periodic scan bursts of never-reused objects, and
// each policy's BHR degradation is measured. Admission-controlled
// policies (LFO, TinyLFU, AdaptSize) should shrug scans off; admit-all
// recency caches (LRU, FIFO) should bleed.
func Robustness(cfg Config) ([]RobustnessResult, error) {
	base, err := cfg.workload("stable")
	if err != nil {
		return nil, err
	}
	scanned := gen.WithScans(base, robustnessScans)
	line := robustnessLineup(cfg)
	opts := sim.Options{Warmup: cfg.Requests / 5}
	clean, err := cfg.replay(base, opts, line)
	if err != nil {
		return nil, err
	}
	dirty, err := cfg.replay(scanned, opts, line)
	if err != nil {
		return nil, err
	}
	out := make([]RobustnessResult, len(line))
	for i := range line {
		r := RobustnessResult{
			Policy:     clean[i].name,
			CleanBHR:   baseOnlyBHR(*clean[i].m, base, opts.Warmup),
			ScannedBHR: baseOnlyBHR(*dirty[i].m, scanned, opts.Warmup),
		}
		if r.CleanBHR > 0 {
			r.Degradation = 1 - r.ScannedBHR/r.CleanBHR
		}
		out[i] = r
	}
	return out, nil
}

// baseOnlyBHR is a run's byte hit ratio over the base requests of tr only:
// scan objects are compulsory misses by construction, so counting them
// would hide the pollution effect under a constant penalty every policy
// pays equally. gen.WithScans never repeats a scan object, so none hits
// and leaving them out takes only their post-warmup bytes off ReqBytes.
func baseOnlyBHR(m sim.Metrics, tr *trace.Trace, warmup int) float64 {
	for _, r := range tr.Requests[min(warmup, tr.Len()):] {
		if gen.IsScan(r.ID) {
			m.ReqBytes -= r.Size
		}
	}
	return m.BHR()
}

// RobustnessTable formats the robustness experiment.
func RobustnessTable(rs []RobustnessResult) *Table {
	t := &Table{
		Title:  "Robustness: BHR under scan contamination (§1's adversarial traffic)",
		Header: []string{"policy", "clean BHR", "scanned BHR", "degradation"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.Policy,
			fmt.Sprintf("%.4f", r.CleanBHR),
			fmt.Sprintf("%.4f", r.ScannedBHR),
			fmt.Sprintf("%.1f%%", 100*r.Degradation),
		})
	}
	return t
}
