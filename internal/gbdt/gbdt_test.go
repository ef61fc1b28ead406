package gbdt

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synth builds a dataset where the label is a noisy function of the
// features: y = 1 if x0 > 5 XOR x1 > 3 (a non-linear relationship trees
// must capture).
func synth(n int, seed int64, noise float64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := NewDataset(4)
	for i := 0; i < n; i++ {
		row := []float64{
			rng.Float64() * 10,
			rng.Float64() * 6,
			rng.NormFloat64(), // irrelevant
			rng.Float64(),     // irrelevant
		}
		y := 0.0
		if (row[0] > 5) != (row[1] > 3) {
			y = 1
		}
		if rng.Float64() < noise {
			y = 1 - y
		}
		d.Append(row, y)
	}
	return d
}

func accuracy(m *Model, d *Dataset) float64 {
	correct := 0
	for i := 0; i < d.Len(); i++ {
		p := m.Predict(d.Row(i))
		if (p >= 0.5) == (d.Label(i) == 1) {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}

func TestTrainLearnsXOR(t *testing.T) {
	train := synth(4000, 1, 0)
	test := synth(1000, 2, 0)
	m, err := Train(train, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, test); acc < 0.97 {
		t.Errorf("XOR accuracy = %.3f, want >= 0.97", acc)
	}
}

func TestTrainNoisyLabels(t *testing.T) {
	train := synth(4000, 3, 0.1)
	test := synth(1000, 4, 0)
	m, err := Train(train, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, test); acc < 0.9 {
		t.Errorf("noisy XOR accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestPredictInUnitInterval(t *testing.T) {
	train := synth(1000, 5, 0.05)
	m, err := Train(train, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < train.Len(); i++ {
		p := m.Predict(train.Row(i))
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("Predict = %g outside [0,1]", p)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	p := DefaultParams()
	a, err := Train(synth(1000, 6, 0.05), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(synth(1000, 6, 0.05), p)
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{3, 2, 0, 0.5}
	if a.RawPredict(row) != b.RawPredict(row) {
		t.Error("same data and params, different models")
	}
	if a.NumTrees() != b.NumTrees() || a.NumLeaves() != b.NumLeaves() {
		t.Error("same data and params, different structure")
	}
}

func TestConstantLabels(t *testing.T) {
	d := NewDataset(2)
	for i := 0; i < 100; i++ {
		d.Append([]float64{float64(i), 1}, 1)
	}
	m, err := Train(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{50, 1}); p < 0.99 {
		t.Errorf("all-positive training: Predict = %g, want ≈1", p)
	}
}

func TestMissingValuesRouted(t *testing.T) {
	// Feature 0 determines the label; feature 0 is missing for a class
	// of rows whose label is always 1. The model must learn to route
	// NaN to the positive side.
	rng := rand.New(rand.NewSource(8))
	d := NewDataset(2)
	for i := 0; i < 3000; i++ {
		if rng.Intn(3) == 0 {
			d.Append([]float64{math.NaN(), rng.Float64()}, 1)
		} else {
			x := rng.Float64() * 10
			y := 0.0
			if x > 7 {
				y = 1
			}
			d.Append([]float64{x, rng.Float64()}, y)
		}
	}
	m, err := Train(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{math.NaN(), 0.5}); p < 0.8 {
		t.Errorf("missing-feature row predicted %g, want > 0.8", p)
	}
	if p := m.Predict([]float64{1, 0.5}); p > 0.3 {
		t.Errorf("x=1 row predicted %g, want < 0.3", p)
	}
	if p := m.Predict([]float64{9, 0.5}); p < 0.7 {
		t.Errorf("x=9 row predicted %g, want > 0.7", p)
	}
}

func TestNumLeavesRespected(t *testing.T) {
	p := DefaultParams()
	p.NumLeaves = 4
	m, err := Train(synth(2000, 9, 0), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Trees {
		if got := m.Trees[i].numLeaves(); got > 4 {
			t.Errorf("tree %d has %d leaves, want <= 4", i, got)
		}
	}
}

func TestMinDataInLeafRespected(t *testing.T) {
	d := synth(500, 11, 0)
	m, err := Train(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Count training rows per leaf for each tree.
	for ti := range m.Trees {
		counts := make(map[int32]int)
		for i := 0; i < d.Len(); i++ {
			leaf := leafIndex(&m.Trees[ti], d.Row(i))
			counts[leaf]++
		}
		for leaf, c := range counts {
			if c < minDataInLeaf {
				t.Errorf("tree %d leaf %d holds %d rows, want >= %d", ti, leaf, c, minDataInLeaf)
			}
		}
	}
}

func leafIndex(tr *Tree, row []float64) int32 {
	i := int32(0)
	for {
		n := tr.Nodes[i]
		if n.Feature < 0 {
			return i
		}
		v := row[n.Feature]
		if math.IsNaN(v) {
			if n.MissingLeft {
				i = n.Left
			} else {
				i = n.Right
			}
		} else if v <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

func TestFeatureImportance(t *testing.T) {
	m, err := Train(synth(3000, 12, 0), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	imp := m.FeatureImportance()
	if len(imp) != 4 {
		t.Fatalf("importance dim = %d, want 4", len(imp))
	}
	sum := 0.0
	for _, v := range imp {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importance sums to %g, want 1", sum)
	}
	// The informative features (0, 1) must dominate the noise features:
	// each informative feature outranks each noise feature, and together
	// they carry the majority of splits. (Later trees fit residual noise,
	// so noise features legitimately appear in some splits.)
	for _, info := range []int{0, 1} {
		for _, noise := range []int{2, 3} {
			if imp[info] <= imp[noise] {
				t.Errorf("importance[%d]=%.3f not above noise feature %d=%.3f", info, imp[info], noise, imp[noise])
			}
		}
	}
	if imp[0]+imp[1] < 0.5 {
		t.Errorf("informative features carry %.2f importance, want >= 0.5", imp[0]+imp[1])
	}
}

func TestMoreIterationsImproveTrainFit(t *testing.T) {
	d := synth(3000, 13, 0.02)
	p := DefaultParams()
	p.NumIterations = 2
	short, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	p.NumIterations = 40
	long, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if accuracy(long, d) < accuracy(short, d) {
		t.Errorf("40 iters train acc %.3f < 2 iters %.3f", accuracy(long, d), accuracy(short, d))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, err := Train(synth(1000, 14, 0.05), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{5, 3, 0, 0.1}
	if got.RawPredict(row) != m.RawPredict(row) {
		t.Error("loaded model predicts differently")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("Load accepted garbage")
	}
}

func TestPredictMatrixMatchesSequential(t *testing.T) {
	d := synth(500, 15, 0.1)
	m, err := Train(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]float64, 0, d.Len()*d.Dim())
	for i := 0; i < d.Len(); i++ {
		rows = append(rows, d.Row(i)...)
	}
	seq := make([]float64, d.Len())
	par := make([]float64, d.Len())
	m.PredictMatrix(rows, seq, 1)
	m.PredictMatrix(rows, par, 8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("row %d: parallel %g != sequential %g", i, par[i], seq[i])
		}
	}
}

func TestParamsValidate(t *testing.T) {
	mods := []struct {
		name string
		mut  func(*Params)
	}{
		{"iterations", func(p *Params) { p.NumIterations = 0 }},
		{"leaves", func(p *Params) { p.NumLeaves = 1 }},
		{"leaves past one word", func(p *Params) { p.NumLeaves = maxLeaves + 1 }},
	}
	for _, tc := range mods {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.mut(&p)
			if err := p.Validate(); err == nil {
				t.Error("Validate accepted bad params")
			}
		})
	}
	p := DefaultParams()
	p.NumLeaves = maxLeaves
	if err := p.Validate(); err != nil {
		t.Errorf("one-word trees rejected: %v", err)
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
}

func TestTrainEmptyDataset(t *testing.T) {
	if _, err := Train(NewDataset(3), DefaultParams()); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestDatasetPanics(t *testing.T) {
	d := NewDataset(2)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"wrong dim", func() { d.Append([]float64{1}, 0) }},
		{"bad label", func() { d.Append([]float64{1, 2}, 0.5) }},
		{"zero dim dataset", func() { NewDataset(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.f()
		})
	}
}

func TestBinnerMonotone(t *testing.T) {
	// Bins must be monotone in the raw value, quantile cuts included: 16
	// bins, fewer than the values quick draws.
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		b := &binner{edges: [][]float64{quantileEdges(append([]float64(nil), raw...), 16)}}
		for i := 0; i < len(raw); i++ {
			for j := 0; j < len(raw); j++ {
				if raw[i] < raw[j] && b.bin(0, raw[i]) > b.bin(0, raw[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBinnerMissingBin(t *testing.T) {
	d := NewDataset(1)
	d.Append([]float64{1}, 0)
	d.Append([]float64{2}, 1)
	b := buildBinner(d)
	if got := b.bin(0, math.NaN()); got != missingBin {
		t.Errorf("NaN bin = %d, want %d", got, missingBin)
	}
	if b.bin(0, 1) == missingBin || b.bin(0, 2) == missingBin {
		t.Error("real values landed in the missing bin")
	}
	if b.bin(0, 1) >= b.bin(0, 2) {
		t.Error("bins not ordered")
	}
	// Values beyond the training range map into the top bin.
	if got, want := b.bin(0, 99), b.bin(0, 2); got != want {
		t.Errorf("out-of-range bin = %d, want %d", got, want)
	}
}

func TestQuantileEdgesDedup(t *testing.T) {
	// A heavily repeated value must not produce duplicate edges.
	vals := make([]float64, 0, 1000)
	for i := 0; i < 900; i++ {
		vals = append(vals, 7)
	}
	for i := 0; i < 100; i++ {
		vals = append(vals, float64(i))
	}
	edges := quantileEdges(vals, 8)
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatalf("edges not strictly increasing: %v", edges)
		}
	}
	if !math.IsInf(edges[len(edges)-1], 1) {
		t.Error("last edge not +Inf")
	}
}

// TestGradientHessianProperty: for logistic loss, grad = p - y and
// hess = p(1-p) must satisfy |grad| <= 1 and 0 <= hess <= 0.25.
func TestGradientHessianProperty(t *testing.T) {
	d := synth(200, 16, 0.3)
	tr := &trainer{p: DefaultParams(), d: d}
	tr.grad = make([]float64, d.Len())
	tr.hess = make([]float64, d.Len())
	tr.scores = make([]float64, d.Len())
	rng := rand.New(rand.NewSource(1))
	for i := range tr.scores {
		tr.scores[i] = rng.NormFloat64() * 3
	}
	tr.computeGradients()
	for i := range tr.grad {
		if math.Abs(tr.grad[i]) > 1 {
			t.Fatalf("grad[%d] = %g outside [-1,1]", i, tr.grad[i])
		}
		if tr.hess[i] < 0 || tr.hess[i] > 0.25 {
			t.Fatalf("hess[%d] = %g outside [0,0.25]", i, tr.hess[i])
		}
	}
}

func TestHistogramSubtraction(t *testing.T) {
	d := synth(300, 17, 0.2)
	p := DefaultParams()
	tr := &trainer{p: p, d: d}
	tr.workers = 1
	tr.b = buildBinner(d)
	tr.bins, tr.rowStart = binRows(d, tr.b)
	tr.offsets = tr.b.histOffsets()
	tr.grad = make([]float64, d.Len())
	tr.hess = make([]float64, d.Len())
	tr.scores = make([]float64, d.Len())
	tr.histCols = make([]histCol, d.Dim())
	tr.computeGradients()

	all := make([]int32, d.Len())
	for i := range all {
		all[i] = int32(i)
	}
	// Every other feature is live; the others' cells are never read.
	var live []int32
	for f := 0; f < d.Dim(); f += 2 {
		live = append(live, int32(f))
	}
	parent := tr.newHistogram(live)
	tr.buildHist(parent, live, all)

	half := all[:150]
	rest := all[150:]
	hHalf := tr.newHistogram(live)
	tr.buildHist(hHalf, live, half)
	subtractCells(parent, hHalf)
	derived := parent

	// The direct histogram comes back from the pool full of another
	// leaf's sums: newHistogram must clear every live cell.
	dirty := &leafCand{hist: tr.newHistogram(live)}
	tr.buildHist(dirty.hist, live, all)
	tr.releaseHist(dirty)
	direct := tr.newHistogram(live)
	tr.buildHist(direct, live, rest)
	for _, f := range live {
		for i := tr.offsets[f]; i < tr.offsets[f+1]; i++ {
			if direct[i].count != derived[i].count {
				t.Fatalf("bin %d count: direct %d != derived %d", i, direct[i].count, derived[i].count)
			}
			if math.Abs(direct[i].grad-derived[i].grad) > 1e-9 {
				t.Fatalf("bin %d grad mismatch", i)
			}
			if math.Abs(direct[i].hess-derived[i].hess) > 1e-9 {
				t.Fatalf("bin %d hess mismatch", i)
			}
		}
	}
}
