package experiments

import (
	"fmt"

	"lfo/internal/core"
	"lfo/internal/gen"
	"lfo/internal/policy"
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
	scanned := gen.WithScans(base, gen.ScanConfig{
		Every:      20,
		Burst:      5,
		ObjectSize: 256 << 10, // hefty scan objects maximize pollution
	})

	names := []string{"lru", "fifo", "s4lru", "gdsf", "tinylfu", "adaptsize"}
	warmup := cfg.Requests / 5
	var out []RobustnessResult
	for _, name := range names {
		clean, err := policy.New(name, cfg.CacheSize, cfg.Seed)
		if err != nil {
			return nil, err
		}
		dirty, err := policy.New(name, cfg.CacheSize, cfg.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, robustnessRow(clean.Name(),
			baseBHR(base, clean, warmup), baseBHR(scanned, dirty, warmup)))
	}

	cleanLFO, err := core.New(cfg.lfoConfig())
	if err != nil {
		return nil, err
	}
	dirtyLFO, err := core.New(cfg.lfoConfig())
	if err != nil {
		return nil, err
	}
	out = append(out, robustnessRow("LFO",
		baseBHR(base, cleanLFO, warmup), baseBHR(scanned, dirtyLFO, warmup)))
	return out, nil
}

// baseBHR replays the (possibly contaminated) trace but measures the byte
// hit ratio over base requests only: scan objects are compulsory misses
// by construction, so counting them would hide the pollution effect under
// a constant penalty every policy pays equally.
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

func robustnessRow(name string, clean, scanned float64) RobustnessResult {
	r := RobustnessResult{Policy: name, CleanBHR: clean, ScannedBHR: scanned}
	if clean > 0 {
		r.Degradation = 1 - scanned/clean
	}
	return r
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
