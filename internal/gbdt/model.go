package gbdt

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// Model is a trained boosted-tree binary classifier.
type Model struct {
	// Dim is the expected feature dimension.
	Dim int
	// BaseScore is the initial raw margin (log-odds of the training
	// positive rate).
	BaseScore float64
	// Trees are the boosted stages in training order.
	Trees []Tree

	// flat is the compiled scorer every predict path runs on. It is
	// unexported so gob round-trips see only the tree structure; Train and
	// Load build it, and a hand-assembled model must be Compiled before
	// its first prediction.
	flat *Flat
}

// Compile builds the scorer that every predict path uses, validating the
// model the same way Load does. Train and Load call it automatically; call
// it manually on hand-assembled models. The tree structure must not be
// mutated after Compile.
func (m *Model) Compile() error {
	f, err := compileFlat(m.Dim, m.BaseScore, m.Trees)
	if err != nil {
		return err
	}
	f.narrow = f.fitsCarry()
	m.flat = f
	return nil
}

// Flat returns the compiled scorer, or nil if the model was never
// Compiled.
func (m *Model) Flat() *Flat { return m.flat }

// compiled returns the scorer, refusing a hand-assembled model that skipped
// Compile with a message instead of a nil dereference.
func (m *Model) compiled() *Flat {
	if m.flat == nil {
		panic("gbdt: model was assembled by hand and never Compiled")
	}
	return m.flat
}

// RawPredict returns the unsquashed margin for one feature row.
//
//lfo:hotpath
func (m *Model) RawPredict(row []float64) float64 {
	return m.compiled().RawPredict(row)
}

// Predict returns the probability of the positive class for one row.
//
//lfo:hotpath
func (m *Model) Predict(row []float64) float64 {
	return sigmoid(m.RawPredict(row))
}

// PredictMatrix fills out[i] with the positive-class probability of row i
// of the flat row-major matrix rows (see Flat.PredictMatrix): rows is n
// rows of Dim values, out has length n, workers caps the goroutines (0 =
// all cores, 1 = inline). The output is byte-identical for any worker count
// and identical to per-row Predict calls.
//
//lfo:hotpath
func (m *Model) PredictMatrix(rows []float64, out []float64, workers int) {
	m.compiled().PredictMatrix(rows, out, workers)
}

// PredictStable returns Predict(row) and fills limits[k] with how far
// feature feats[k] may grow before the score can change (see
// Flat.PredictStable).
//
//lfo:hotpath
func (m *Model) PredictStable(row []float64, feats []int, limits []float64) float64 {
	return m.compiled().PredictStable(row, feats, limits)
}

// CarryWords returns the length of the state PredictCarry keeps with nfeats
// features asked for, or 0 when the model's scores cannot be carried (see
// Flat.CarryWords).
func (m *Model) CarryWords(nfeats int) int {
	return m.compiled().CarryWords(nfeats)
}

// PredictCarry is PredictStable that also fills state for Advance (see
// Flat.PredictCarry).
//
//lfo:hotpath
func (m *Model) PredictCarry(row []float64, feats []int, limits []float64, state []uint32) float64 {
	return m.compiled().PredictCarry(row, feats, limits, state)
}

// Advance carries a score that PredictCarry left in state forward to a row
// whose asked features have grown (see Flat.Advance).
//
//lfo:hotpath
func (m *Model) Advance(row []float64, feats []int, limits []float64, state []uint32) float64 {
	return m.compiled().Advance(row, feats, limits, state)
}

// NumTrees returns the number of boosted stages.
func (m *Model) NumTrees() int { return len(m.Trees) }

// NumLeaves returns the total leaf count across all trees.
func (m *Model) NumLeaves() int {
	n := 0
	for i := range m.Trees {
		n += m.Trees[i].numLeaves()
	}
	return n
}

// FeatureImportance returns, per feature, the fraction of all split nodes
// that test the feature (Fig 8 of the paper: "occurrence in tree
// branches"). The fractions sum to 1 unless the model has no splits.
func (m *Model) FeatureImportance() []float64 {
	counts := make([]float64, m.Dim)
	total := 0.0
	for i := range m.Trees {
		m.Trees[i].visitSplits(func(f int) {
			counts[f]++
			total++
		})
	}
	if total > 0 {
		for f := range counts {
			counts[f] /= total
		}
	}
	return counts
}

// Save serializes the model with encoding/gob.
func (m *Model) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(m)
}

// Load deserializes a model written by Save and compiles its scorer.
// Compilation doubles as validation, so a corrupted or hostile stream
// cannot yield a model whose prediction panics, loops, or launders
// non-finite values into scores: every split feature must be within Dim,
// every tree must be a tree whose child indices point past their parent
// (the shape the trainer emits — children are always appended after the
// node that split) with at most 64 leaves, and thresholds, leaf values,
// and the base score must be finite.
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("gbdt: load model: %w", err)
	}
	if err := m.Compile(); err != nil {
		return nil, fmt.Errorf("gbdt: load model: %w", err)
	}
	return &m, nil
}

func sigmoid(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}
