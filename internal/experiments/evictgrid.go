package experiments

import (
	"fmt"

	"lfo/internal/core"
	"lfo/internal/evict"
	"lfo/internal/policy"
	"lfo/internal/sim"
)

// EvictionGridResult is one cell of the admission×eviction ablation:
// one admission strategy paired with one eviction strategy on one drift
// scenario.
type EvictionGridResult struct {
	Scenario  string
	Admission string
	Eviction  string
	BHR       float64
	OHR       float64
	// MissCost is the summed retrieval cost of missed requests after
	// warmup (lower is better; under BHR costs it equals missed bytes).
	MissCost float64
}

// gridAdmissions and gridEvictions enumerate the grid axes.
var (
	gridAdmissions = []string{"lfo", "second-hit", "admit-all"}
	gridEvictions  = []string{"learned", "gdsf", "lru"}
)

// gridPolicy builds the cache for one grid cell. LFO rows use
// internal/core with delegated eviction (both models retrain per
// window); heuristic-admission rows use internal/evict's combined cache
// (only the eviction ranker trains).
func gridPolicy(cfg Config, admission, eviction string) (sim.Policy, error) {
	if admission == "lfo" {
		lcfg := cfg.lfoConfig()
		lcfg.Eviction = eviction
		lcfg.Seed = cfg.Seed
		return core.New(lcfg)
	}
	ecfg := evict.Config{
		CacheSize:  cfg.CacheSize,
		Eviction:   eviction,
		Seed:       cfg.Seed,
		WindowSize: cfg.Window,
		Workers:    cfg.Workers,
		Obs:        cfg.Obs,
	}
	if admission == "second-hit" {
		ecfg.Admitter = policy.NewSecondHitCensor(0)
		ecfg.AdmitterName = "second-hit"
	} else {
		ecfg.AdmitterName = "admit-all"
	}
	return evict.New(ecfg)
}

// EvictionGrid runs the {LFO, second-hit, admit-all} × {learned, gdsf,
// lru} admission×eviction ablation across the drift scenarios, reporting
// BHR, OHR, and post-warmup miss cost per cell. Rows are emitted in a
// fixed scenario-major order and every cell is byte-deterministic for a
// given Config (including across Workers values), so reruns produce
// identical tables.
func EvictionGrid(cfg Config) ([]EvictionGridResult, error) {
	var out []EvictionGridResult
	for _, sc := range scenarios {
		trc, err := cfg.workload(sc.name)
		if err != nil {
			return nil, err
		}
		opts := sim.Options{Warmup: cfg.Requests / 5, Obs: cfg.Obs}
		for _, adm := range gridAdmissions {
			for _, ev := range gridEvictions {
				p, err := gridPolicy(cfg, adm, ev)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s/%s/%s: %v", sc.name, adm, ev, err)
				}
				m := sim.Run(trc, p, opts)
				out = append(out, EvictionGridResult{
					Scenario:  sc.name,
					Admission: adm,
					Eviction:  ev,
					BHR:       m.BHR(),
					OHR:       m.OHR(),
					MissCost:  m.MissCost,
				})
			}
		}
	}
	return out, nil
}

// EvictionGridTable formats the grid scenario-major.
func EvictionGridTable(rs []EvictionGridResult) *Table {
	t := &Table{
		Title:  "Eviction ablation: {admission} x {eviction} across drift scenarios",
		Header: []string{"scenario", "admission", "eviction", "BHR", "OHR", "miss cost"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.Scenario, r.Admission, r.Eviction,
			fmt.Sprintf("%.4f", r.BHR),
			fmt.Sprintf("%.4f", r.OHR),
			fmt.Sprintf("%.3g", r.MissCost),
		})
	}
	return t
}
