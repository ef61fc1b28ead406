package experiments

import (
	"fmt"
	"strings"

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
	var line []entry
	for _, adm := range gridAdmissions {
		for _, ev := range gridEvictions {
			line = append(line, entry{adm + "/" + ev, func() (sim.Policy, error) { return gridPolicy(cfg, adm, ev) }})
		}
	}
	var out []EvictionGridResult
	for _, sc := range scenarios {
		trc, err := cfg.workload(sc.name)
		if err != nil {
			return nil, err
		}
		rows, err := cfg.replay(trc, sim.Options{Warmup: cfg.Requests / 5}, line)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			adm, ev, _ := strings.Cut(r.name, "/")
			out = append(out, EvictionGridResult{
				Scenario:  sc.name,
				Admission: adm,
				Eviction:  ev,
				BHR:       r.m.BHR(),
				OHR:       r.m.OHR(),
				MissCost:  r.m.MissCost,
			})
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
