package gbdt

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// splitMix is a SplitMix64 PRNG: deterministic rows without math/rand
// state shared across tests.
type splitMix struct{ s uint64 }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitMix) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// trainedFlatModel trains a real model over rows with NaN-valued features
// so the learned missing-direction routing is exercised, not just the
// numeric compares. Labels carry noise so the trainer grows full-depth
// trees instead of separating the classes in a few splits.
func trainedFlatModel(tb testing.TB, seed uint64, dim int) *Model {
	tb.Helper()
	rng := splitMix{s: seed}
	ds := NewDataset(dim)
	row := make([]float64, dim)
	for i := 0; i < 4000; i++ {
		s := 0.0
		for j := range row {
			v := rng.float() * 100
			if rng.next()%7 == 0 {
				v = math.NaN()
			} else {
				s += v
			}
			row[j] = v
		}
		label := 0.0
		if (s > 50*float64(dim)/2) != (rng.next()%4 == 0) {
			label = 1
		}
		ds.Append(row, label)
	}
	p := DefaultParams()
	p.Workers = 1
	m, err := Train(ds, p)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// diffRows returns n deterministic test rows (flat row-major) mixing
// in-range values, out-of-range values, and NaNs.
func diffRows(seed uint64, n, dim int) []float64 {
	rng := splitMix{s: seed}
	rows := make([]float64, n*dim)
	for i := range rows {
		switch rng.next() % 8 {
		case 0:
			rows[i] = math.NaN()
		case 1:
			rows[i] = -rng.float() * 1e6
		default:
			rows[i] = rng.float() * 120
		}
	}
	return rows
}

// TestFlatDifferentialTrained: on trained models the compiled scorer must
// reproduce the pointer-walk oracle bit for bit, row by row.
func TestFlatDifferentialTrained(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		m := trainedFlatModel(t, seed, 13)
		if m.Flat() == nil {
			t.Fatal("trained model was not compiled")
		}
		mustMatchOracle(t, m, diffRows(seed+100, 300, m.Dim))
	}
}

// TestFlatDifferentialCorpus replays every committed fuzz-corpus seed:
// any stream Load accepts must predict identically through the compiled
// scorer and the pointer walk.
func TestFlatDifferentialCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzModelLoad")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus: %v", err)
	}
	loaded := 0
	for _, e := range entries {
		data, err := readCorpusEntry(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			continue // rejected streams have nothing to compare
		}
		loaded++
		if m.Dim > 1<<12 {
			continue
		}
		mustMatchOracle(t, m, diffRows(uint64(len(data)), 64, m.Dim))
	}
	if loaded == 0 {
		t.Fatal("no corpus entry loaded successfully; differential corpus check is vacuous")
	}
}

// readCorpusEntry parses the `go test fuzz v1` + `[]byte("...")` format
// of a committed corpus file.
func readCorpusEntry(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sc.Scan() // version header
	sc.Scan()
	line := strings.TrimSuffix(strings.TrimPrefix(sc.Text(), "[]byte("), ")")
	if err := sc.Err(); err != nil {
		return nil, err
	}
	s, err := strconv.Unquote(line)
	if err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// TestPredictMatrixWorkerInvariance: the batched walk must be
// byte-identical to per-row Predict for every worker count and for sizes
// that are empty, smaller than a block, or straddle block boundaries.
func TestPredictMatrixWorkerInvariance(t *testing.T) {
	m := trainedFlatModel(t, 3, 9)
	for _, n := range []int{0, 1, 63, 64, 65, 513} {
		rows := diffRows(uint64(n)+9, n, m.Dim)
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			want[i] = m.Predict(rows[i*m.Dim : (i+1)*m.Dim])
		}
		for _, workers := range []int{0, 1, 2, 8} {
			out := make([]float64, n)
			m.PredictMatrix(rows, out, workers)
			for i := range out {
				if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d workers=%d row %d: matrix %v != per-row %v", n, workers, i, out[i], want[i])
				}
			}
		}
	}
}

// TestBlockWalkMatchesOracle: the previous kernel, kept in reference_test.go
// for the reference trainer, must add exactly what per-row tree walks add, in
// the same order, and squash to what PredictMatrix returns.
func TestBlockWalkMatchesOracle(t *testing.T) {
	m := trainedFlatModel(t, 5, 7)
	const n = 130
	rows := diffRows(17, n, m.Dim)
	got := make([]float64, n)
	want := make([]float64, n)
	for i := range got {
		got[i] = 0.25
		want[i] = 0.25
		row := rows[i*m.Dim : (i+1)*m.Dim]
		for ti := range m.Trees {
			want[i] += m.Trees[ti].predict(row)
		}
	}
	old := compileBlockFlat(m.Dim, m.BaseScore, m.Trees)
	old.AccumulateRaw(rows, got, 2)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: accumulate %v != oracle %v", i, got[i], want[i])
		}
	}
	old.PredictMatrix(rows, want, 2)
	m.PredictMatrix(rows, got, 2)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: PredictMatrix %v != block walk %v", i, got[i], want[i])
		}
	}
}

// TestUncompiledModelRefuses: a hand-assembled model that skipped Compile
// has no scorer, and says so instead of walking the structs.
func TestUncompiledModelRefuses(t *testing.T) {
	m := &Model{Dim: 2, Trees: []Tree{{Nodes: []node{{Feature: -1, Value: 1}}}}}
	for name, call := range map[string]func(){
		"Predict":       func() { m.Predict([]float64{0, 0}) },
		"PredictMatrix": func() { m.PredictMatrix([]float64{0, 0}, []float64{0}, 1) },
		"PredictStable": func() { m.PredictStable([]float64{0, 0}, nil, nil) },
	} {
		mustPanic(t, name+" on an uncompiled model", call)
	}
}

// mustPanic fails unless call panics.
func mustPanic(t *testing.T, what string, call func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	call()
}

// mustMatchOracle fails unless the compiled scorer returns, for every one
// of the n rows, the bits the pointer walk returns: row by row and through
// PredictMatrix.
func mustMatchOracle(t *testing.T, m *Model, rows []float64) {
	t.Helper()
	n := len(rows) / m.Dim
	probs := make([]float64, n)
	m.PredictMatrix(rows, probs, 1)
	for i := 0; i < n; i++ {
		row := rows[i*m.Dim : (i+1)*m.Dim]
		got, want := m.RawPredict(row), m.nodeRawPredict(row)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d %v: scorer %v (%#x) != oracle %v (%#x)",
				i, row, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if math.Float64bits(probs[i]) != math.Float64bits(sigmoid(want)) {
			t.Fatalf("row %d %v: PredictMatrix %v != oracle %v", i, row, probs[i], sigmoid(want))
		}
	}
}

// randomModel assembles trees the way the trainer grows them — split a
// random leaf, append its two children — with thresholds drawn from
// gridValues so that trees share thresholds and rows land exactly on them.
func randomModel(rng *splitMix, dim, trees, maxLeaves int) *Model {
	m := &Model{Dim: dim, BaseScore: rng.float() - 0.5}
	for t := 0; t < trees; t++ {
		nodes := []node{{Feature: -1}}
		leafIdx := []int{0}
		for want := 1 + int(rng.next()%uint64(maxLeaves)); len(leafIdx) < want; {
			k := int(rng.next() % uint64(len(leafIdx)))
			i := leafIdx[k]
			l := len(nodes)
			nodes[i] = node{
				Feature:     int32(rng.next() % uint64(dim)),
				Threshold:   gridValues[rng.next()%uint64(len(gridValues))],
				MissingLeft: rng.next()%2 == 0,
				Left:        int32(l), Right: int32(l + 1),
			}
			if rng.next()%4 == 0 { // children need not be in left-right order
				nodes[i].Left, nodes[i].Right = nodes[i].Right, nodes[i].Left
			}
			nodes = append(nodes, node{Feature: -1}, node{Feature: -1})
			leafIdx[k] = l
			leafIdx = append(leafIdx, l+1)
		}
		for i := range nodes {
			if nodes[i].Feature < 0 {
				nodes[i].Value = rng.float() - 0.5
			}
		}
		m.Trees = append(m.Trees, Tree{Nodes: nodes})
	}
	return m
}

var gridValues = []float64{-1e9, -3, -0.5, 0, math.SmallestNonzeroFloat64, 0.5, 1, 1.0000000000000002, 7, 1e9}

// gridRows draws rows over the threshold grid: values on a threshold, one
// ulp either side, ±Inf, negative zero and NaN, the NaNs scattered.
func gridRows(rng *splitMix, n, dim int) []float64 {
	rows := make([]float64, n*dim)
	for i := range rows {
		v := gridValues[rng.next()%uint64(len(gridValues))]
		switch rng.next() % 8 {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Nextafter(v, math.Inf(1))
		case 2:
			v = math.Nextafter(v, math.Inf(-1))
		case 3:
			v = math.Inf(int(rng.next()%2)*2 - 1)
		case 4:
			v = math.Copysign(0, -1)
		}
		rows[i] = v
	}
	return rows
}

// nanSuffix overwrites the columns from keep on with NaN in every row.
func nanSuffix(rows []float64, dim, keep int) {
	for i := 0; i < len(rows); i += dim {
		for j := keep; j < dim; j++ {
			rows[i+j] = math.NaN()
		}
	}
}

// TestScoreWindowRows: on a model trained on window-shaped rows, every
// history length k = 0…50 of a 53-column row — the NaN suffix the scorer
// skips through its table — scores as the pointer walk does, and so do rows
// whose NaNs are scattered with a value behind them, where the suffix scan
// must stop at once.
func TestScoreWindowRows(t *testing.T) {
	d := windowDataset(3000, 5)
	p := DefaultParams()
	p.Workers = 1
	m, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if b := m.Flat().blocks; len(b) != 1 || len(b[0].tail) != len(b[0].feats) {
		t.Fatalf("a window model should be one block with a full suffix table, have %d blocks, table of %d for %d split features",
			len(b), len(b[0].tail), len(b[0].feats))
	}
	dim := d.Dim()
	const perK = 40
	dense := windowDataset(perK, 6).x
	rng := splitMix{s: 99}
	for i := range dense {
		if math.IsNaN(dense[i]) {
			dense[i] = math.Floor(rng.float() * 20000)
		}
	}
	for k := 0; k <= dim-3; k++ {
		rows := append([]float64(nil), dense...)
		nanSuffix(rows, dim, 3+k)
		mustMatchOracle(t, m, rows)
		// The same rows with holes: NaN in some columns before the suffix,
		// and with the last column back, no suffix at all.
		for i := 0; i < len(rows); i += dim {
			rows[i+int(rng.next()%uint64(dim))] = math.NaN()
			if i/dim%2 == 0 {
				rows[i+dim-1] = dense[i+dim-1]
			}
		}
		mustMatchOracle(t, m, rows)
	}
}

// TestScoreEdgeValues: thresholds shared across trees, values exactly on a
// threshold and one ulp off, ±Inf, negative zero and scattered NaN, over
// hand-grown trees of every shape the compiler treats differently, up to
// trees of 64 leaves, a full bitvector word.
func TestScoreEdgeValues(t *testing.T) {
	cases := []struct {
		name                  string
		dim, trees, maxLeaves int
		blocks                int  // at least this many
		cut                   bool // the suffix table stops short of the split features
	}{
		{"one-word trees", 6, 30, 31, 1, false},
		{"stumps and single leaves", 3, 40, 2, 1, false},
		{"full-word trees", 5, 7, maxLeaves, 1, false},
		{"several blocks", 4, 150, 40, 3, false},
		{"wide trees in several blocks", 9, 200, maxLeaves, 3, false},
		{"many features, table cut short", 250, 64, 31, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := splitMix{s: uint64(len(tc.name))}
			m := randomModel(&rng, tc.dim, tc.trees, tc.maxLeaves)
			if err := m.Compile(); err != nil {
				t.Fatal(err)
			}
			f := m.Flat()
			if len(f.blocks) < tc.blocks {
				t.Errorf("layout: %d blocks, want at least %d", len(f.blocks), tc.blocks)
			}
			for _, b := range f.blocks {
				if len(b.trees) > blockTrees {
					t.Errorf("a block of %d trees, more than the %d words of the stack vector", len(b.trees), blockTrees)
				}
				if cut := len(b.tail) < len(b.feats); cut != tc.cut || len(b.tail) == 0 {
					t.Errorf("suffix table covers %d of %d split features, cut short: want %v", len(b.tail), len(b.feats), tc.cut)
				}
			}
			rows := gridRows(&rng, 400, tc.dim)
			mustMatchOracle(t, m, rows)
			for _, keep := range []int{0, 1, tc.dim / 2, tc.dim - 1} {
				nanSuffix(rows, tc.dim, keep)
				mustMatchOracle(t, m, rows)
			}
		})
	}
}

// TestScoreDegenerateModels: no trees at all, only single-leaf trees, and
// chains — each split's left (or right) child a leaf — of 64 leaves, whose
// entries clear every bit of the word but one. A chain of more than 64
// leaves does not fit one word: Compile refuses it and names the tree.
func TestScoreDegenerateModels(t *testing.T) {
	leaf := Tree{Nodes: []node{{Feature: -1, Value: 0.75}}}
	cases := []struct {
		name   string
		trees  []Tree
		reject int // the tree Compile must refuse, or -1
	}{
		{"zero trees", nil, -1},
		{"single-leaf trees", []Tree{leaf, leaf, leaf}, -1},
		{"single leaves around a stump", []Tree{leaf, {Nodes: []node{
			{Feature: 1, Threshold: 4, MissingLeft: true, Left: 1, Right: 2},
			{Feature: -1, Value: -0.25}, {Feature: -1, Value: 0.125},
		}}, leaf}, -1},
		{"64-leaf chains", []Tree{chainTree(maxLeaves, true), leaf, chainTree(maxLeaves, false)}, -1},
		{"130-leaf chains", []Tree{chainTree(130, true), chainTree(130, false)}, 0},
		{"65-leaf chain", []Tree{chainTree(64, true), chainTree(65, false)}, 1},
		{"4200-leaf chains beside small trees", []Tree{leaf, chainTree(4200, false), chainTree(5, true), chainTree(4200, true)}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &Model{Dim: 3, BaseScore: -0.5, Trees: tc.trees}
			err := m.Compile()
			if tc.reject >= 0 {
				if want := fmt.Sprintf("tree %d has", tc.reject); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("Compile: %v, want an error naming tree %d", err, tc.reject)
				}
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Fatal(err)
				}
				if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tree %d has", tc.reject)) {
					t.Fatalf("Load: %v, want an error naming tree %d", err, tc.reject)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			rng := splitMix{s: 31}
			rows := gridRows(&rng, 200, m.Dim)
			for i := 0; i < len(rows); i += 7 {
				rows[i] = float64(int(rng.next()%13)) - 6.5 // between the chains' thresholds
			}
			mustMatchOracle(t, m, rows)
			nanSuffix(rows, m.Dim, 1)
			mustMatchOracle(t, m, rows)
		})
	}
}

// chainTree grows a tree whose every split has a leaf for its left child
// (or, with leafLeft false, its right), over three features and eleven
// thresholds.
func chainTree(leaves int, leafLeft bool) Tree {
	var nodes []node
	for i := 0; i < leaves-1; i++ {
		n := node{Feature: int32(i % 3), Threshold: float64(i%11) - 5, MissingLeft: i%2 == 0, Left: int32(2*i + 1), Right: int32(2*i + 2)}
		if !leafLeft {
			n.Left, n.Right = n.Right, n.Left
		}
		nodes = append(nodes, n, node{Feature: -1, Value: float64(i) / 64})
	}
	return Tree{Nodes: append(nodes, node{Feature: -1, Value: -1})}
}

// mustMatchHorizon fails unless PredictStable returns, for every row,
// Predict's bits and the pointer walk's horizon for the features asked for
// (feats, or two the rng draws per row), and unless the pointer walk scores
// the same bits with those features moved, together, to their limits and to
// points drawn between value and limit.
func mustMatchHorizon(t *testing.T, m *Model, rows []float64, rng *splitMix, feats ...int) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	ask := feats
	if len(ask) == 0 {
		ask = make([]int, min(m.Dim, 2))
	}
	limits := make([]float64, len(ask))
	moved := make([]float64, m.Dim)
	for i := 0; i < len(rows); i += m.Dim {
		row := rows[i : i+m.Dim]
		if len(feats) == 0 {
			ask[0] = int(rng.next() % uint64(m.Dim))
			for k := 1; k < len(ask); k++ {
				ask[k] = (ask[0] + 1 + int(rng.next()%uint64(m.Dim-1))) % m.Dim
			}
		}
		got, want := m.PredictStable(row, ask, limits), sigmoid(m.nodeRawPredict(row))
		if !same(got, want) || !same(got, m.Predict(row)) {
			t.Fatalf("row %v: PredictStable %v, Predict %v, oracle %v", row, got, m.Predict(row), want)
		}
		for k, ft := range ask {
			if ref := m.referenceHorizon(row, ft); !same(limits[k], ref) {
				t.Fatalf("row %v feature %d: horizon %v, oracle %v", row, ft, limits[k], ref)
			}
		}
		for try := 0; try < 4; try++ {
			copy(moved, row)
			for k, ft := range ask {
				if math.IsNaN(row[ft]) {
					continue // no horizon: the feature stays where it is
				}
				moved[ft] = limits[k]
				if try > 0 {
					moved[ft] = between(rng, row[ft], limits[k])
				}
			}
			if at := sigmoid(m.nodeRawPredict(moved)); !same(at, want) {
				t.Fatalf("row %v scores %v, but %v with features %v inside their horizons %v, at %v", row, want, at, ask, limits, moved)
			}
		}
	}
}

// between draws a value in [lo, hi]: an end, one ulp inside an end, or a
// point in the interior.
func between(rng *splitMix, lo, hi float64) float64 {
	var v float64
	switch rng.next() % 4 {
	case 0:
		v = math.Nextafter(lo, math.Inf(1))
	case 1:
		v = math.Nextafter(hi, math.Inf(-1))
	case 2:
		return lo
	default:
		u := rng.float()
		v = math.Max(lo, -math.MaxFloat64)*(1-u) + math.Min(hi, math.MaxFloat64)*u
	}
	return math.Min(math.Max(v, lo), hi)
}

// TestPredictStableMatchesOracle: the stability horizon against the pointer
// walk (referenceHorizon) on trained models shaped like a window's and like
// the evictor's, and on hand-grown ones of every layout the scorer treats
// differently: window-sized trees, trees and chains of 64 leaves, a full
// word, several blocks, thresholds shared across trees, values exactly on a
// threshold (the limit is the value itself), no true test left (+Inf), NaN
// in the other features, NaN and ±Inf in the feature asked for, and a
// feature no tree splits on.
func TestPredictStableMatchesOracle(t *testing.T) {
	train := func(d *Dataset) *Model {
		p := DefaultParams()
		p.Workers = 1
		m, err := Train(d, p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	rng := splitMix{s: 2718}
	t.Run("window model", func(t *testing.T) {
		m := train(windowDataset(3000, 5))
		rows := windowDataset(300, 6).x
		mustMatchHorizon(t, m, rows, &rng)
		mustMatchHorizon(t, m, rows, &rng, 0, 3) // size and the newest gap
	})
	t.Run("eviction model", func(t *testing.T) {
		m := train(evictionDataset(4000, 1))
		rows := evictionDataset(400, 2).x
		mustMatchHorizon(t, m, rows, &rng, 3, 4) // a first-seen row is NaN in both
		for i, v := range rows {
			if math.IsNaN(v) { // what the evictor sends: whole numbers, never NaN
				rows[i] = float64(rng.next() % 5000)
			}
		}
		mustMatchHorizon(t, m, rows, &rng, 3, 4)
		mustMatchHorizon(t, m, rows, &rng, 4)
		mustMatchHorizon(t, m, rows, &rng)
	})
	leaf := Tree{Nodes: []node{{Feature: -1, Value: 0.75}}}
	for _, tc := range []struct {
		name string
		m    *Model
	}{
		{"one-word trees", randomModel(&rng, 6, 30, 31)},
		{"stumps and single leaves", randomModel(&rng, 3, 40, 2)},
		{"full-word trees", randomModel(&rng, 5, 7, maxLeaves)},
		{"several blocks", randomModel(&rng, 4, 150, 40)},
		{"wide trees in several blocks", randomModel(&rng, 9, 200, maxLeaves)},
		{"one feature", randomModel(&rng, 1, 12, 31)},
		{"no trees", &Model{Dim: 3, BaseScore: 0.25}},
		{"64-leaf chains", &Model{Dim: 3, Trees: []Tree{chainTree(maxLeaves, true), chainTree(maxLeaves, false)}}},
		{"64-leaf chains beside small trees", &Model{Dim: 3, BaseScore: -0.5,
			Trees: []Tree{leaf, chainTree(maxLeaves, false), chainTree(5, true), chainTree(maxLeaves, true)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			if err := m.Compile(); err != nil {
				t.Fatal(err)
			}
			rows := gridRows(&rng, 300, m.Dim)
			for i := 0; i < len(rows); i += 7 {
				rows[i] = float64(int(rng.next()%13)) - 6.5 // between the chains' thresholds
			}
			mustMatchHorizon(t, m, rows, &rng)
			nanSuffix(rows, m.Dim, (m.Dim+1)/2)
			mustMatchHorizon(t, m, rows, &rng)
		})
	}
	t.Run("a feature no tree splits on", func(t *testing.T) {
		m := randomModel(&rng, 4, 30, 31)
		m.Dim = 6
		if err := m.Compile(); err != nil {
			t.Fatal(err)
		}
		rows := gridRows(&rng, 100, m.Dim)
		mustMatchHorizon(t, m, rows, &rng, 5, 1, 4)
		var limits [1]float64
		for i := 0; i < len(rows); i += m.Dim {
			m.PredictStable(rows[i:i+m.Dim], []int{4}, limits[:])
			if !math.IsNaN(rows[i+4]) && !math.IsInf(limits[0], 1) {
				t.Fatalf("horizon %v of a feature the model never tests, want +Inf", limits[0])
			}
		}
	})
}

// TestPredictStableRefusesBadArgs: a feature outside the model or a limits
// slice of the wrong length is a caller bug and panics with a message.
func TestPredictStableRefusesBadArgs(t *testing.T) {
	m := trainedFlatModel(t, 13, 5)
	row := make([]float64, m.Dim)
	for name, call := range map[string]func(){
		"a feature past dim": func() { m.PredictStable(row, []int{5}, make([]float64, 1)) },
		"a negative feature": func() { m.PredictStable(row, []int{-1}, make([]float64, 1)) },
		"too few limits":     func() { m.PredictStable(row, []int{1, 2}, make([]float64, 1)) },
		"a short row":        func() { m.PredictStable(row[:4], []int{1}, make([]float64, 1)) },
		"nine features":      func() { m.PredictStable(row, make([]int, 9), make([]float64, 9)) },
	} {
		mustPanic(t, "PredictStable with "+name, call)
	}
}

// featureThresholds returns, per feature, the thresholds m's trees test it
// against, ascending.
func featureThresholds(m *Model) [][]float64 {
	ths := make([][]float64, m.Dim)
	for _, tree := range m.Trees {
		for _, n := range tree.Nodes {
			if n.Feature >= 0 {
				ths[n.Feature] = append(ths[n.Feature], n.Threshold)
			}
		}
	}
	for _, t := range ths {
		slices.Sort(t)
	}
	return ths
}

// grow draws the next value of a feature at x whose horizon is limit and
// whose thresholds are ths: x itself, onto the limit or a threshold ahead,
// one ulp past either, or +Inf.
func grow(rng *splitMix, x, limit float64, ths []float64) float64 {
	next := limit
	if i, _ := slices.BinarySearch(ths, x); i < len(ths) && rng.next()%2 == 0 {
		next = ths[i+int(rng.next()%uint64(len(ths)-i))]
	}
	switch rng.next() % 8 {
	case 0:
		return x
	case 1:
		return math.Inf(1)
	case 2, 3, 4:
		next = math.Nextafter(next, math.Inf(1))
	}
	if math.IsNaN(next) || next < x {
		return x
	}
	return next
}

// mustAdvance fails unless, for every row, a score PredictCarry leaves and
// Advance then carries through a few growth steps of the features asked
// for (two the rng draws per row; a NaN there becomes a number) equals, at
// every step, a fresh PredictCarry of the grown row bit for bit: score,
// limits and every word of the state.
func mustAdvance(t *testing.T, m *Model, rows []float64, rng *splitMix) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	ths := featureThresholds(m)
	ask := make([]int, min(m.Dim, 2))
	words := m.CarryWords(len(ask))
	state, fresh := make([]uint32, words), make([]uint32, words)
	limits, want := make([]float64, len(ask)), make([]float64, len(ask))
	row := make([]float64, m.Dim)
	for i := 0; i < len(rows); i += m.Dim {
		copy(row, rows[i:i+m.Dim])
		ask[0] = int(rng.next() % uint64(m.Dim))
		for k := 1; k < len(ask); k++ {
			ask[k] = (ask[0] + 1 + int(rng.next()%uint64(m.Dim-1))) % m.Dim
		}
		for _, ft := range ask {
			if math.IsNaN(row[ft]) {
				row[ft] = gridValues[rng.next()%uint64(len(gridValues))]
			}
		}
		got := m.PredictCarry(row, ask, limits, state)
		if p := m.PredictStable(row, ask, want); !same(got, p) || !slices.EqualFunc(limits, want, same) {
			t.Fatalf("row %v: PredictCarry %v, limits %v; PredictStable %v, %v", row, got, limits, p, want)
		}
		for step := 0; step < 6; step++ {
			for k, ft := range ask {
				row[ft] = grow(rng, row[ft], limits[k], ths[ft])
			}
			got = m.Advance(row, ask, limits, state)
			p := m.PredictCarry(row, ask, want, fresh)
			if !same(got, p) || !slices.Equal(state, fresh) || !slices.EqualFunc(limits, want, same) {
				t.Fatalf("row %v, features %v, step %d: carried %v, limits %v, state %v; fresh %v, %v, %v",
					row, ask, step, got, limits, state, p, want, fresh)
			}
		}
	}
}

// TestAdvanceMatchesPredictStable: a carried score against a fresh one at
// every growth step of the features asked for, on a trained eviction ranker
// and on random models of at most 32 leaves a tree — one block and several,
// thresholds shared across trees, the other features NaN or not — and a
// model with one wider tree is never carried.
func TestAdvanceMatchesPredictStable(t *testing.T) {
	rng := splitMix{s: 1618}
	t.Run("eviction model", func(t *testing.T) {
		p := DefaultParams()
		p.Workers = 1
		m, err := Train(evictionDataset(4000, 1), p)
		if err != nil {
			t.Fatal(err)
		}
		if m.CarryWords(2) != len(m.Trees)+2 {
			t.Fatalf("a %d-tree ranker keeps %d words, want %d", len(m.Trees), m.CarryWords(2), len(m.Trees)+2)
		}
		rows := evictionDataset(400, 2).x
		mustAdvance(t, m, rows, &rng)
	})
	for _, tc := range []struct {
		name string
		m    *Model
	}{
		{"one block", randomModel(&rng, 5, 30, carryLeaves)},
		{"stumps", randomModel(&rng, 3, 40, 2)},
		{"several blocks", randomModel(&rng, 4, 150, carryLeaves)},
		{"one feature", randomModel(&rng, 1, 20, 31)},
		{"32-leaf chains", &Model{Dim: 3, Trees: []Tree{chainTree(carryLeaves, true), chainTree(carryLeaves, false)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			if err := m.Compile(); err != nil {
				t.Fatal(err)
			}
			if m.CarryWords(1) == 0 {
				t.Fatal("a model of at most 32 leaves a tree does not carry")
			}
			rows := gridRows(&rng, 300, m.Dim)
			mustAdvance(t, m, rows, &rng)
			nanSuffix(rows, m.Dim, (m.Dim+1)/2)
			mustAdvance(t, m, rows, &rng)
		})
	}
	t.Run("a wider tree", func(t *testing.T) {
		m := &Model{Dim: 3, Trees: []Tree{chainTree(5, true), chainTree(carryLeaves+1, false)}}
		if err := m.Compile(); err != nil {
			t.Fatal(err)
		}
		if n := m.CarryWords(2); n != 0 {
			t.Fatalf("a model with a %d-leaf tree keeps %d words", carryLeaves+1, n)
		}
		row, state := []float64{1, 2, 3}, make([]uint32, 4)
		mustPanic(t, "PredictCarry", func() { m.PredictCarry(row, []int{0, 1}, make([]float64, 2), state) })
		mustPanic(t, "Advance", func() { m.Advance(row, []int{0, 1}, make([]float64, 2), state) })
	})
	t.Run("a short state", func(t *testing.T) {
		m := randomModel(&rng, 3, 4, 8)
		if err := m.Compile(); err != nil {
			t.Fatal(err)
		}
		mustPanic(t, "PredictCarry", func() { m.PredictCarry(make([]float64, 3), []int{0}, make([]float64, 1), make([]uint32, 4)) })
	})
}

// TestCompileIsBoundedByTheModel: what Compile allocates follows the nodes
// a model has, not the dim it claims.
func TestCompileIsBoundedByTheModel(t *testing.T) {
	m := &Model{Dim: 1 << 50, Trees: []Tree{{Nodes: []node{
		{Feature: 1 << 30, Threshold: 1, Left: 1, Right: 2}, {Feature: -1, Value: 1}, {Feature: -1, Value: 2},
	}}}}
	if err := m.Compile(); err != nil {
		t.Fatal(err)
	}
	f := m.Flat()
	if len(f.ents) != 1 || len(f.blocks) != 1 || len(f.blocks[0].suffix) > 2 {
		t.Fatalf("compiled %d entries, %d blocks, %d table words for one stump", len(f.ents), len(f.blocks), len(f.blocks[0].suffix))
	}
}

// TestCompileIdempotent: recompiling must be safe and change nothing.
func TestCompileIdempotent(t *testing.T) {
	m := trainedFlatModel(t, 13, 5)
	row := diffRows(1, 1, m.Dim)
	before := m.RawPredict(row)
	if err := m.Compile(); err != nil {
		t.Fatal(err)
	}
	if after := m.RawPredict(row); math.Float64bits(before) != math.Float64bits(after) {
		t.Fatalf("recompile changed prediction: %v != %v", before, after)
	}
}
