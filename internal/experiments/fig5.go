package experiments

import (
	"fmt"

	"lfo/internal/core"
)

// CutoffPoint is one point of the Fig 5a sweep.
type CutoffPoint struct {
	Cutoff           float64
	FalsePositivePct float64 // "accidentally admitted"
	FalseNegativePct float64 // "accidentally not admitted"
	PredictionErrPct float64
}

// Fig5a reproduces Figure 5a: false positive and false negative rates as
// a function of the likelihood cutoff. The paper's shape targets: both
// rates are roughly stable between cutoffs .25 and .75; FN explodes below
// .25 and FP explodes above .75.
func Fig5a(cfg Config) ([]CutoffPoint, error) {
	wp, err := cfg.windowPair(cfg.lfoConfig())
	if err != nil {
		return nil, err
	}
	var out []CutoffPoint
	for c := 0.05; c <= 0.951; c += 0.05 {
		ev := core.Evaluate(wp.model, wp.eval, c)
		out = append(out, CutoffPoint{
			Cutoff:           c,
			FalsePositivePct: 100 * ev.FalsePositiveRate,
			FalseNegativePct: 100 * ev.FalseNegativeRate,
			PredictionErrPct: 100 * ev.Error,
		})
	}
	return out, nil
}

// Fig5aTable formats Fig5a results.
func Fig5aTable(pts []CutoffPoint) *Table {
	t := &Table{
		Title:  "Fig 5a: false positives/negatives vs likelihood cutoff",
		Header: []string{"cutoff", "FP% (accid. admitted)", "FN% (accid. not admitted)", "error%"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", p.Cutoff),
			fmt.Sprintf("%.2f", p.FalsePositivePct),
			fmt.Sprintf("%.2f", p.FalseNegativePct),
			fmt.Sprintf("%.2f", p.PredictionErrPct),
		})
	}
	return t
}

// TrainingSizePoint is one point of the Fig 5b sweep.
type TrainingSizePoint struct {
	Samples int
	// ErrPct values across the repeated subsets.
	MeanErrPct, MinErrPct, MaxErrPct float64
}

// Fig5b reproduces Figure 5b: prediction error as a function of the
// training-set size, repeated over random trace subsets. Shape targets:
// error below ~6.5% already at the smallest sizes, decaying and
// stabilizing as the training set grows.
func Fig5b(cfg Config, sizes []int, repeats int) ([]TrainingSizePoint, error) {
	if len(sizes) == 0 {
		sizes = []int{2500, 5000, 10000, 20000, 40000}
	}
	if repeats <= 0 {
		repeats = 3
	}
	lcfg := cfg.lfoConfig()
	var out []TrainingSizePoint
	for _, n := range sizes {
		errs := make([]float64, repeats)
		for rep := range errs {
			// A fresh trace subset per repeat (different generator seed),
			// like the paper's "ten random subsets of the trace".
			sub := cfg
			sub.Seed = cfg.Seed + int64(rep)*1000
			sub.Requests = 2 * n
			sub.Window = n
			wp, err := sub.windowPair(lcfg)
			if err != nil {
				return nil, err
			}
			errs[rep] = 100 * core.Evaluate(wp.model, wp.eval, 0.5).Error
		}
		pt := TrainingSizePoint{Samples: n}
		pt.MeanErrPct, pt.MinErrPct, pt.MaxErrPct = errSpread(errs)
		out = append(out, pt)
	}
	return out, nil
}

// Fig5bTable formats Fig5b results.
func Fig5bTable(pts []TrainingSizePoint) *Table {
	t := &Table{
		Title:  "Fig 5b: prediction error vs training set size",
		Header: []string{"samples", "mean err%", "min err%", "max err%"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Samples),
			fmt.Sprintf("%.2f", p.MeanErrPct),
			fmt.Sprintf("%.2f", p.MinErrPct),
			fmt.Sprintf("%.2f", p.MaxErrPct),
		})
	}
	return t
}

// SeedResult summarizes the Fig 5c seed-sensitivity experiment.
type SeedResult struct {
	Seeds      int
	ErrPcts    []float64
	MeanErrPct float64
	MinErrPct  float64
	MaxErrPct  float64
	// SpreadPct is max − min; the paper's robustness claim is a spread
	// within about half a percentage point on its trace.
	SpreadPct float64
}

// Fig5c reproduces Figure 5c: prediction error across random seeds and
// trace subsets. The learner uses bagging and feature subsampling so the
// seed genuinely matters; the shape target is a small spread.
func Fig5c(cfg Config, seeds int) (*SeedResult, error) {
	if seeds <= 0 {
		seeds = 100
	}
	lcfg := cfg.lfoConfig()
	lcfg.GBDT.BaggingFraction = 0.8
	lcfg.GBDT.BaggingFreq = 1
	lcfg.GBDT.FeatureFraction = 0.9

	res := &SeedResult{Seeds: seeds}
	for s := 0; s < seeds; s++ {
		sub := cfg
		// Different trace subset per seed (like the paper's 100 subsets).
		sub.Seed = cfg.Seed + int64(s)
		sub.Requests = 2 * cfg.Window
		lcfg.GBDT.Seed = int64(s)
		wp, err := sub.windowPair(lcfg)
		if err != nil {
			return nil, err
		}
		res.ErrPcts = append(res.ErrPcts, 100*core.Evaluate(wp.model, wp.eval, 0.5).Error)
	}
	res.MeanErrPct, res.MinErrPct, res.MaxErrPct = errSpread(res.ErrPcts)
	res.SpreadPct = res.MaxErrPct - res.MinErrPct
	return res, nil
}

// errSpread is the mean, min and max of a non-empty series of error
// percentages: the one aggregate of Fig 5b's repeats and Fig 5c's seeds.
func errSpread(errs []float64) (mean, lo, hi float64) {
	lo, hi = errs[0], errs[0]
	sum := 0.0
	for _, e := range errs {
		sum += e
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	return sum / float64(len(errs)), lo, hi
}

// Fig5cTable formats Fig5c results.
func Fig5cTable(r *SeedResult) *Table {
	t := &Table{
		Title:  "Fig 5c: prediction error across random seeds / trace subsets",
		Header: []string{"seeds", "mean err%", "min err%", "max err%", "spread (pp)"},
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("%d", r.Seeds),
		fmt.Sprintf("%.2f", r.MeanErrPct),
		fmt.Sprintf("%.2f", r.MinErrPct),
		fmt.Sprintf("%.2f", r.MaxErrPct),
		fmt.Sprintf("%.2f", r.SpreadPct),
	})
	return t
}
