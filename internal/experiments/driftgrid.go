package experiments

import (
	"fmt"

	"lfo/internal/core"
	"lfo/internal/drift"
	"lfo/internal/opt"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// DriftGridResult is one cell of the online-learning-bridge evaluation:
// one serving strategy on one drift scenario, scored by hit ratios and
// by regret against the per-window offline optimum.
type DriftGridResult struct {
	Scenario string
	Policy   string
	BHR      float64
	OHR      float64
	// Regret is the per-window regret series: OPT's byte hit ratio on
	// the window's requests (solved clairvoyantly from a cold cache)
	// minus the policy's. Lower is better; negative windows mean the
	// warm policy beat the cold-start optimum bound.
	Regret []float64
	// AvgRegret is the mean of Regret.
	AvgRegret float64
	// EarlyRetrains counts drift-triggered training rounds (0 for rows
	// without the trigger).
	EarlyRetrains int
}

// hybridGridLR is the bias learning rate the hybrid rows use. The bias
// is an EMA of the per-class disagreement, so 0.01 gives it a time
// constant of ~100 requests per size class — fast enough to track a
// shift within a window, slow enough not to chase per-object noise.
const hybridGridLR = 0.01

// driftGridLineup is the grid's serving strategies, in the fixed order it
// emits rows. The frozen row is the plain windowed LFO pipeline (frozen
// between retrains); ogd is the pure online learner with no model at all;
// the hybrid rows bridge the two, the last also arming the drift
// detector's early-retrain trigger.
func driftGridLineup(cfg Config) []entry {
	hybrid := cfg.lfoConfig()
	hybrid.HybridLR = hybridGridLR
	early := hybrid
	early.DriftThreshold = drift.DefaultThreshold
	return []entry{
		lfoEntry("frozen-gbdt", cfg.lfoConfig()),
		{"ogd", cfg.baselines("ogd")[0].build},
		lfoEntry("hybrid", hybrid),
		lfoEntry("hybrid+early-retrain", early),
	}
}

// optWindowBHR is the reference side of the regret metric: for each
// window, OPT solved clairvoyantly on exactly that window's requests. Every
// grid row of a scenario shares the same window boundaries, so the solve is
// shared too.
func optWindowBHR(cfg Config, tr *trace.Trace, wins []sim.WindowMetrics) ([]float64, error) {
	oc := cfg.lfoConfig().OPT
	oc.CacheSize = cfg.CacheSize
	out := make([]float64, len(wins))
	for i, w := range wins {
		res, err := opt.Compute(tr.Slice(w.Start, w.Start+w.Requests), oc)
		if err != nil {
			return nil, err
		}
		out[i] = res.BHR()
	}
	return out, nil
}

// DriftGrid runs the {frozen-gbdt, ogd, hybrid, hybrid+early-retrain} ×
// {stable, cdn-drift, reshuffle} evaluation of the online-learning
// bridge, reporting BHR/OHR and per-window regret against OPT. Rows are
// emitted scenario-major in a fixed order and every cell is
// byte-deterministic for a given Config including across Workers values
// (the grid policies are synchronous; only solver internals
// parallelize).
func DriftGrid(cfg Config) ([]DriftGridResult, error) {
	line := driftGridLineup(cfg)
	var out []DriftGridResult
	for _, sc := range scenarios {
		trc, err := cfg.workload(sc.name)
		if err != nil {
			return nil, err
		}
		rows, err := cfg.replay(trc, sim.Options{Warmup: cfg.Requests / 5, WindowSize: cfg.Window}, line)
		if err != nil {
			return nil, err
		}
		optBHR, err := optWindowBHR(cfg, trc, rows[0].m.Windows)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: per-window OPT: %v", sc.name, err)
		}
		for _, r := range rows {
			regret := make([]float64, len(r.m.Windows))
			sum := 0.0
			for i := range r.m.Windows {
				regret[i] = optBHR[i] - r.m.Windows[i].BHR()
				sum += regret[i]
			}
			avg := 0.0
			if len(regret) > 0 {
				avg = sum / float64(len(regret))
			}
			early := 0
			if lfo, ok := r.p.(*core.LFO); ok {
				early = lfo.EarlyRetrains()
			}
			out = append(out, DriftGridResult{
				Scenario:      sc.name,
				Policy:        r.name,
				BHR:           r.m.BHR(),
				OHR:           r.m.OHR(),
				Regret:        regret,
				AvgRegret:     avg,
				EarlyRetrains: early,
			})
		}
	}
	return out, nil
}

// DriftGridTable formats the grid scenario-major.
func DriftGridTable(rs []DriftGridResult) *Table {
	t := &Table{
		Title:  "Online-learning bridge: serving strategy x drift scenario",
		Header: []string{"scenario", "policy", "BHR", "OHR", "avg regret", "early retrains"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.Scenario, r.Policy,
			fmt.Sprintf("%.4f", r.BHR),
			fmt.Sprintf("%.4f", r.OHR),
			fmt.Sprintf("%.4f", r.AvgRegret),
			fmt.Sprintf("%d", r.EarlyRetrains),
		})
	}
	return t
}
