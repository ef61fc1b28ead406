// Package gbdt implements histogram-based gradient-boosted decision trees
// for binary classification, following the LightGBM algorithm the paper's
// prototype uses (§2.3): quantile feature binning, leaf-wise (best-first)
// tree growth, logistic loss, shrinkage, optional bagging and feature
// subsampling, and native missing-value routing with learned default
// directions.
//
// The repro environment has no tree-learning library for Go, so this
// package is a from-scratch substrate. It trains at LightGBM's defaults,
// with the paper's one deviation: NumIterations is 30 instead of 100.
// Params holds only what a caller varies: iterations and leaves, sampling,
// the seed and the worker count.
//
// The trainer (train.go) works on a row-major binned copy of the data:
// histograms are built row by row, the larger child's is derived by
// subtraction as it is scanned, rows live in one per-tree arena
// partitioned in place, and scores are updated from the leaves' row
// ranges. It pays only for splits that can still happen: no scan of a leaf
// too small to split, of a feature too sparse to, or of a candidate's
// divisions when a pre-test shows it cannot win; no histogram kept for a
// leaf that will not be split. None of this reorders a float sum: Train is
// held byte for byte (Model.Save) to the plain trainer kept in
// reference_test.go, for every Workers value. Inference runs on the
// compiled bitvector scorer (flat.go).
package gbdt

import (
	"fmt"
)

// The trainer runs LightGBM's defaults for everything Params does not set:
// a learning rate of 0.1, unlimited depth, at least 20 rows and 1e-3 of
// hessian mass per leaf, no L2 regularisation, any positive gain admitted,
// and at most 255 histogram bins per feature.
const (
	learningRate        = 0.1
	minDataInLeaf       = 20
	minSumHessianInLeaf = 1e-3
	minGainToSplit      = 0
	maxBins             = 255
)

// Params configures training. The zero value is not valid; start from
// DefaultParams.
type Params struct {
	// NumIterations is the number of boosting rounds (trees). The paper
	// reduces LightGBM's default 100 to 30 (§2.3).
	NumIterations int
	// NumLeaves caps leaves per tree (leaf-wise growth), at most 64: the
	// scorer holds a tree's leaves in one bitvector word.
	NumLeaves int
	// BaggingFraction subsamples rows per bagging round, in (0, 1].
	BaggingFraction float64
	// BaggingFreq re-samples rows every BaggingFreq iterations; 0
	// disables bagging.
	BaggingFreq int
	// FeatureFraction subsamples features per tree, in (0, 1].
	FeatureFraction float64
	// Seed drives bagging and feature sampling.
	Seed int64
	// Workers caps the goroutines used inside Train: row-sharded
	// gradient/score updates and feature-parallel histogram building and
	// split search. 0 means all available cores (runtime.GOMAXPROCS),
	// 1 trains single-threaded. The trained model is byte-identical for
	// every value — parallelism only changes wall-clock time.
	Workers int
}

// DefaultParams returns LightGBM-style defaults with the paper's 30
// iterations.
func DefaultParams() Params {
	return Params{
		NumIterations:   30,
		NumLeaves:       31,
		BaggingFraction: 1,
		BaggingFreq:     0,
		FeatureFraction: 1,
		Seed:            0,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	switch {
	case p.NumIterations <= 0:
		return fmt.Errorf("gbdt: NumIterations must be positive, got %d", p.NumIterations)
	case p.NumLeaves < 2 || p.NumLeaves > maxLeaves:
		return fmt.Errorf("gbdt: NumLeaves must be in [2,%d], got %d", maxLeaves, p.NumLeaves)
	case !(p.BaggingFraction > 0 && p.BaggingFraction <= 1):
		return fmt.Errorf("gbdt: BaggingFraction must be in (0,1], got %g", p.BaggingFraction)
	case !(p.FeatureFraction > 0 && p.FeatureFraction <= 1):
		return fmt.Errorf("gbdt: FeatureFraction must be in (0,1], got %g", p.FeatureFraction)
	case p.Workers < 0:
		return fmt.Errorf("gbdt: Workers must be >= 0, got %d", p.Workers)
	}
	return nil
}
