package experiments

import (
	"fmt"
	"math"

	"lfo/internal/core"
	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/opt"
	"lfo/internal/sim"
)

// Ablation benchmarks for the design choices DESIGN.md calls out.

// RankFractionPoint measures the OPT ranking approximation (§2.1).
type RankFractionPoint struct {
	Fraction float64
	// Solved is the number of intervals handed to the exact solver: what
	// the solve costs on any machine. Under BHR costs that solver is the
	// sweep, O(I log I) in the intervals. For seconds see the repository
	// benchmark's opt.compute_s.
	Solved int
	// HitBytesShare is the approximation's OPT hit bytes relative to the
	// exact solve.
	HitBytesShare float64
	// Agreement is the per-request decision agreement with the exact
	// solve.
	Agreement float64
}

// AblationRankFraction quantifies the paper's claim that ranking by
// C/(S·L) and solving only the top share of intervals saves most of the
// computation at minor decision cost. Every point is judged against the
// exact solve at fraction 1, whatever the list's order.
func AblationRankFraction(cfg Config, fractions []float64) ([]RankFractionPoint, error) {
	if len(fractions) == 0 {
		fractions = []float64{1.0, 0.5, 0.3, 0.1}
	}
	tr, err := cfg.workload("cdn-drift")
	if err != nil {
		return nil, err
	}
	solve := func(f float64) (*opt.Result, error) {
		return opt.Compute(tr, opt.Config{CacheSize: cfg.CacheSize, Algorithm: opt.AlgoFlow, RankFraction: f})
	}
	exact, err := solve(1)
	if err != nil {
		return nil, err
	}
	var out []RankFractionPoint
	for _, f := range fractions {
		res := exact
		if f != 1 {
			if res, err = solve(f); err != nil {
				return nil, err
			}
		}
		agree := 0
		for i := range res.Admit {
			if res.Admit[i] == exact.Admit[i] {
				agree++
			}
		}
		pt := RankFractionPoint{
			Fraction:  f,
			Solved:    res.Solved,
			Agreement: float64(agree) / float64(len(res.Admit)),
		}
		if exact.HitBytes > 0 {
			pt.HitBytesShare = float64(res.HitBytes) / float64(exact.HitBytes)
		}
		out = append(out, pt)
	}
	return out, nil
}

// AblationRankFractionTable formats the rank-fraction ablation.
func AblationRankFractionTable(pts []RankFractionPoint) *Table {
	t := &Table{
		Title:  "Ablation: OPT rank-based trace splitting (C/(S·L), §2.1)",
		Header: []string{"fraction solved", "intervals solved", "hit-bytes share", "decision agreement"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", p.Fraction),
			fmt.Sprintf("%d", p.Solved),
			fmt.Sprintf("%.3f", p.HitBytesShare),
			fmt.Sprintf("%.3f", p.Agreement),
		})
	}
	return t
}

// FeatureVariantResult compares feature-engineering variants.
type FeatureVariantResult struct {
	Variant string
	// ErrPct is the next-window prediction error.
	ErrPct float64
	// Splits is the number of split nodes in the trained model (a model
	// size/speed proxy).
	Splits int
}

// AblationFeatureVariants compares §2.2's design choices on one
// train/eval window pair:
//
//   - "gaps" — LFO's shift-invariant inter-arrival gaps (the paper's
//     choice);
//   - "absolute" — LRU-K style absolute time-since-request features
//     (cumulative sums of the gaps);
//   - "thinned" — only gaps 1, 2, 4, 8, 16, 32 retained (the paper's
//     proposed model speed-up, §3).
func AblationFeatureVariants(cfg Config) ([]FeatureVariantResult, error) {
	lcfg := cfg.lfoConfig()
	wp, err := cfg.windowPair(lcfg)
	if err != nil {
		return nil, err
	}

	variants := []struct {
		name string
		mut  func(row []float64) // a row's stored cells, in place
	}{
		{"gaps (LFO)", nil},
		{"absolute (LRU-K style)", toAbsoluteTimes},
		{"thinned gaps {1,2,4,8,16,32}", thinGaps},
		{"log2-quantized gaps", quantizeGaps},
	}
	var out []FeatureVariantResult
	for _, v := range variants {
		trainV := mapRows(wp.train, v.mut)
		evalV := mapRows(wp.eval, v.mut)
		model, err := gbdt.Train(trainV.Dataset(), lcfg.GBDT)
		if err != nil {
			return nil, err
		}
		ev := core.Evaluate(model, evalV, 0.5)
		out = append(out, FeatureVariantResult{
			Variant: v.name,
			ErrPct:  100 * ev.Error,
			Splits:  model.NumLeaves() - model.NumTrees(), // a split adds one leaf to its tree
		})
	}
	return out, nil
}

// mapRows returns the extraction with mut applied to a copy of each row's
// stored cells; a nil mut returns it as it is. The cells past a row's are
// missing, and every variant leaves a missing gap missing.
func mapRows(e *core.Extraction, mut func(row []float64)) *core.Extraction {
	if mut == nil {
		return e
	}
	rows := gbdt.NewRowStore(features.Dim)
	for i := 0; i < e.Rows.Len(); i++ {
		row := rows.Next()
		n := copy(row, e.Rows.Row(i))
		mut(row[:n])
		rows.Commit(n)
	}
	return &core.Extraction{Rows: rows, Labels: e.Labels, Requests: e.Requests}
}

// toAbsoluteTimes converts gap features into LRU-K-style absolute
// "time since k-th most recent request" features via prefix sums.
func toAbsoluteTimes(row []float64) {
	sum := 0.0
	for g := features.FeatGap0; g < len(row); g++ {
		if math.IsNaN(row[g]) {
			break
		}
		sum += row[g]
		row[g] = sum
	}
}

// thinGaps keeps only gaps 1, 2, 4, 8, 16, 32, masking the rest.
func thinGaps(row []float64) {
	for g := features.FeatGap0; g < len(row); g++ {
		if !thinKept[g-features.FeatGap0+1] {
			row[g] = features.Missing
		}
	}
}

var thinKept = map[int]bool{1: true, 2: true, 4: true, 8: true, 16: true, 32: true}

// quantizeGaps coarsens every gap to the nearest power of two — §2.2's
// "we can likely decrease the feature accuracy without affecting the
// learning results" (a 4-bit representation per gap would suffice).
func quantizeGaps(row []float64) {
	for g := features.FeatGap0; g < len(row); g++ {
		if v := row[g]; !math.IsNaN(v) && v > 0 {
			row[g] = math.Pow(2, math.Round(math.Log2(v)))
		}
	}
}

// AblationFeatureVariantsTable formats the feature-variant ablation.
func AblationFeatureVariantsTable(rs []FeatureVariantResult) *Table {
	t := &Table{
		Title:  "Ablation: feature engineering variants (§2.2, §3)",
		Header: []string{"variant", "next-window err%", "split nodes"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{r.Variant, fmt.Sprintf("%.2f", r.ErrPct), fmt.Sprintf("%d", r.Splits)})
	}
	return t
}

// AblationPolicyDesign compares the full LFO policy against variants that
// disable parts of §2.4's design: hit-triggered eviction off, and a
// higher (more aggressive) cutoff as §3 suggests. Each row is named by its
// variant.
func AblationPolicyDesign(cfg Config) ([]PolicyResult, error) {
	tr, err := cfg.workload("cdn-drift")
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"LFO (paper defaults)", func(c *core.Config) {}},
		{"no evict-on-hit", func(c *core.Config) { c.DisableEvictOnHit = true }},
		{"cutoff 0.65 (aggressive)", func(c *core.Config) { c.Cutoff = 0.65 }},
		{"cutoff 0.25 (permissive)", func(c *core.Config) { c.Cutoff = 0.25 }},
	}
	line := make([]entry, len(variants))
	for i, v := range variants {
		c := cfg.lfoConfig()
		v.mut(&c)
		line[i] = lfoEntry(v.name, c)
	}
	rows, err := cfg.replay(tr, sim.Options{Warmup: cfg.Window}, line)
	if err != nil {
		return nil, err
	}
	return results(rows), nil
}

// AblationPolicyDesignTable formats the policy-design ablation.
func AblationPolicyDesignTable(rs []PolicyResult) *Table {
	t := &Table{
		Title:  "Ablation: LFO policy design (§2.4)",
		Header: []string{"variant", "BHR", "OHR"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{r.Name, fmt.Sprintf("%.4f", r.BHR), fmt.Sprintf("%.4f", r.OHR)})
	}
	return t
}

// IterationsResult compares boosting iteration counts (§2.3: the paper
// cut LightGBM's 100 iterations to 30).
type IterationsResult struct {
	Iterations int
	ErrPct     float64
	// Trees and Leaves size the fitted model: training, like prediction,
	// costs in proportion to them on any machine. For seconds see the
	// repository benchmark's gbdt.train_s.
	Trees, Leaves int
}

// AblationIterations sweeps the boosting iteration count.
func AblationIterations(cfg Config, iters []int) ([]IterationsResult, error) {
	if len(iters) == 0 {
		iters = []int{10, 30, 100}
	}
	lcfg := cfg.lfoConfig()
	wp, err := cfg.windowPair(lcfg)
	if err != nil {
		return nil, err
	}
	ds := wp.train.Dataset()
	var out []IterationsResult
	for _, it := range iters {
		p := lcfg.GBDT
		p.NumIterations = it
		model, err := gbdt.Train(ds, p)
		if err != nil {
			return nil, err
		}
		ev := core.Evaluate(model, wp.eval, 0.5)
		out = append(out, IterationsResult{
			Iterations: it,
			ErrPct:     100 * ev.Error,
			Trees:      model.NumTrees(),
			Leaves:     model.NumLeaves(),
		})
	}
	return out, nil
}

// AblationIterationsTable formats the iterations ablation.
func AblationIterationsTable(rs []IterationsResult) *Table {
	t := &Table{
		Title:  "Ablation: boosting iterations (§2.3: paper uses 30 of LightGBM's default 100)",
		Header: []string{"iterations", "next-window err%", "trees", "leaves"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Iterations),
			fmt.Sprintf("%.2f", r.ErrPct),
			fmt.Sprintf("%d", r.Trees),
			fmt.Sprintf("%d", r.Leaves),
		})
	}
	return t
}
