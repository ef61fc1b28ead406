package experiments

import (
	"fmt"
	"sort"

	"lfo/internal/core"
	"lfo/internal/features"
	"lfo/internal/opt"
	"lfo/internal/sim"
)

// Fig6Result holds the full policy comparison plus the OPT bound.
type Fig6Result struct {
	// Policies is sorted descending by BHR, like the paper's Figure 6.
	Policies []PolicyResult
	// OPT is the offline-optimal bound on the same trace (post-warmup
	// portion measured identically).
	OPT PolicyResult
	// LFOShareOfOPT is LFO's BHR divided by OPT's (paper: ≈80%).
	LFOShareOfOPT float64
	// Objective names the cost objective the trace was replayed under.
	Objective string
}

// fig6PolicyNames is the paper's Figure 6 line-up (we additionally carry
// FIFO, LFU and TinyLFU as context rows).
var fig6PolicyNames = []string{
	"lru", "lruk", "lfuda", "s4lru", "gdwheel", "adaptsize", "hyperbolic", "lhd",
	"fifo", "lfu", "gdsf", "tinylfu",
}

// Fig6 reproduces Figure 6: BHR of LFO against the state-of-the-art
// policies and OPT. Shape targets: OPT > LFO > best heuristic; LFO at
// roughly 80% of OPT.
func Fig6(cfg Config) (*Fig6Result, error) {
	tr, err := cfg.workload("cdn-drift")
	if err != nil {
		return nil, err
	}
	warmup := cfg.Window // first LFO window is bootstrap; exclude for all
	line := append(cfg.baselines(fig6PolicyNames...), lfoEntry("", cfg.lfoConfig()))
	rows, err := cfg.replay(tr, sim.Options{Warmup: warmup}, line)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{Objective: cfg.Objective.String(), Policies: results(rows)}
	lfoRes := res.Policies[len(rows)-1]

	// OPT bound over the measured (post-warmup) portion.
	optRes, err := opt.Compute(tr.Slice(warmup, tr.Len()), opt.Config{
		CacheSize: cfg.CacheSize,
		Algorithm: opt.AlgoFlow,
	})
	if err != nil {
		return nil, err
	}
	res.OPT = PolicyResult{Name: "OPT", BHR: optRes.BHR(), OHR: optRes.OHR()}
	if res.OPT.BHR > 0 {
		res.LFOShareOfOPT = lfoRes.BHR / res.OPT.BHR
	}
	sort.Slice(res.Policies, func(i, j int) bool { return res.Policies[i].BHR > res.Policies[j].BHR })
	return res, nil
}

// Fig6Table formats Fig6 results.
func Fig6Table(r *Fig6Result) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fig 6: policy comparison (%s objective)", r.Objective),
		Header: []string{"policy", "BHR", "OHR"},
	}
	add := func(p PolicyResult) {
		t.Rows = append(t.Rows, []string{p.Name, fmt.Sprintf("%.4f", p.BHR), fmt.Sprintf("%.4f", p.OHR)})
	}
	add(r.OPT)
	for _, p := range r.Policies {
		add(p)
	}
	t.Rows = append(t.Rows, []string{"LFO/OPT", fmt.Sprintf("%.1f%%", 100*r.LFOShareOfOPT), ""})
	return t
}

// ImportanceEntry is one feature's share of model splits.
type ImportanceEntry struct {
	Feature string
	Percent float64
}

// Fig8 reproduces Figure 8: the fraction of tree branches testing each
// feature. Shape targets: object size dominates (paper: 28%), free cache
// space is significant (~10%), early gaps (1–4) are heavily used with a
// long tail of higher gaps, and the cost feature is unused under the BHR
// objective (it is redundant with size).
func Fig8(cfg Config) ([]ImportanceEntry, error) {
	tr, err := cfg.workload("cdn-drift")
	if err != nil {
		return nil, err
	}
	model, _, err := core.TrainOnWindow(tr.Slice(0, cfg.Window), cfg.lfoConfig())
	if err != nil {
		return nil, err
	}
	imp := model.FeatureImportance()
	names := features.Names()
	out := make([]ImportanceEntry, len(imp))
	for i := range imp {
		out[i] = ImportanceEntry{Feature: names[i], Percent: 100 * imp[i]}
	}
	return out, nil
}

// Fig8Table formats Fig8 results, listing size/cost/free and the gap
// features the paper's bar chart shows (1, 5, 10, ..., 50), plus gaps 2–4
// which the paper calls out as heavily used.
func Fig8Table(entries []ImportanceEntry) *Table {
	t := &Table{
		Title:  "Fig 8: relative importance of LFO's features (% of tree branches)",
		Header: []string{"feature", "occurrence %"},
	}
	want := map[string]bool{"size": true, "cost": true, "free": true}
	for _, g := range []int{1, 2, 3, 4, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50} {
		want[fmt.Sprintf("gap%d", g)] = true
	}
	for _, e := range entries {
		if want[e.Feature] {
			t.Rows = append(t.Rows, []string{e.Feature, fmt.Sprintf("%.2f", e.Percent)})
		}
	}
	return t
}
