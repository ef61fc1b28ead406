package experiments

import (
	"fmt"

	"lfo/internal/core"
	"lfo/internal/sim"
	"lfo/internal/tiered"
)

// TieredResult compares hierarchical-cache configurations (§5's
// "hierarchical models" proposal).
type TieredResult struct {
	Variant  string
	BHR      float64
	OHR      float64
	RAMHits  int
	ReadCost float64
}

// TieredExperiment evaluates §5's hierarchical model: a RAM+SSD+HDD cache
// where a trained LFO model makes the cache-at-all decision and predicted
// likelihood drives placement, against admit-all baselines with size-based
// and top-tier-only placement. Tier read costs model relative latencies
// (RAM 1, SSD 10, HDD 100), so ReadCost summarizes where hits land.
func TieredExperiment(cfg Config) ([]TieredResult, error) {
	tr, err := cfg.workload("cdn-drift")
	if err != nil {
		return nil, err
	}
	half := tr.Len() / 2
	train, eval := tr.Slice(0, half), tr.Slice(half, tr.Len())

	tiers := []tiered.Tier{
		{Name: "ram", Capacity: cfg.CacheSize / 8, ReadCost: 1},
		{Name: "ssd", Capacity: cfg.CacheSize / 8 * 3, ReadCost: 10},
		{Name: "hdd", Capacity: cfg.CacheSize / 2, ReadCost: 100},
	}
	var total int64
	for _, t := range tiers {
		total += t.Capacity
	}

	lcfg := cfg.lfoConfig()
	lcfg.CacheSize = total // aggregate cache space (§5)
	lcfg.WindowSize = train.Len()
	model, _, err := core.TrainOnWindow(train, lcfg)
	if err != nil {
		return nil, err
	}

	cache := func(a sim.Admitter, pl tiered.Placer) func() (sim.Policy, error) {
		return func() (sim.Policy, error) { return tiered.New(tiers, a, pl) }
	}
	rows, err := cfg.replay(eval, sim.Options{}, []entry{
		{"LFO admission + likelihood placement", cache(tiered.NewModelAdmitter(model, 0.5), tiered.PlaceByLikelihood(0.85, 0.6))},
		{"LFO admission + size placement", cache(tiered.NewModelAdmitter(model, 0.5), tiered.PlaceBySize(64<<10, 1<<20))},
		{"admit-all + size placement", cache(tiered.AdmitAll{}, tiered.PlaceBySize(64<<10, 1<<20))},
		{"admit-all + top-tier placement", cache(tiered.AdmitAll{}, nil)},
	})
	if err != nil {
		return nil, err
	}
	out := make([]TieredResult, len(rows))
	for i, r := range rows {
		st := r.p.(*tiered.TieredCache).Stats()
		out[i] = TieredResult{Variant: r.name, BHR: r.m.BHR(), OHR: r.m.OHR(), RAMHits: st.Hits[0], ReadCost: st.ReadCost}
	}
	return out, nil
}

// TieredTable formats the tiered-cache experiment.
func TieredTable(rs []TieredResult) *Table {
	t := &Table{
		Title:  "Extension: hierarchical RAM+SSD+HDD cache (§5's proposal)",
		Header: []string{"variant", "BHR", "OHR", "RAM hits", "read cost"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.Variant,
			fmt.Sprintf("%.4f", r.BHR),
			fmt.Sprintf("%.4f", r.OHR),
			fmt.Sprintf("%d", r.RAMHits),
			fmt.Sprintf("%.0f", r.ReadCost),
		})
	}
	return t
}
