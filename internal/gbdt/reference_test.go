package gbdt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"lfo/internal/par"
)

// referenceTrain is the trainer as it stood before its inner loops were
// reworked (PR 14), kept as the oracle Train must equal byte for byte: a
// column-major bin copy built feature by feature, a histogram filled one
// feature column at a time, a split scan that evaluates both missing
// directions of every bin, a whole-histogram subtraction, a two-slice row
// partition per split and a block walk over the raw rows to update the
// scores. It is sequential and shares only the model types, the constants
// rowShardSize and missingBin, sigmoid and clamp with the production
// trainer, so a shortcut there that moves a float sum or a tie-break shows
// up as a byte difference here.
func referenceTrain(d *Dataset, p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("gbdt: empty dataset")
	}
	n := d.Len()
	t := &refTrainer{
		p:      p,
		d:      d,
		x:      d.matrix(),
		grad:   make([]float64, n),
		hess:   make([]float64, n),
		scores: make([]float64, n),
	}
	t.bin()

	pos := 0.0
	for i := 0; i < n; i++ {
		pos += d.Label(i)
	}
	rate := clamp(pos/float64(n), 1e-6, 1-1e-6)
	base := math.Log(rate / (1 - rate))
	for i := range t.scores {
		t.scores[i] = base
	}

	m := &Model{Dim: d.Dim(), BaseScore: base}
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	for iter := 0; iter < p.NumIterations; iter++ {
		for i := range t.grad {
			pr := sigmoid(t.scores[i])
			t.grad[i] = pr - d.Label(i)
			t.hess[i] = pr * (1 - pr)
		}
		tree := t.buildTree(rows)
		if tree == nil {
			// Train stops at the first round with no split; boosting on
			// here must add nothing.
			continue
		}
		m.Trees = append(m.Trees, *tree)
		compileBlockFlat(d.Dim(), 0, m.Trees[len(m.Trees)-1:]).AccumulateRaw(t.x, t.scores, 1)
	}
	if err := m.Compile(); err != nil {
		return nil, err
	}
	return m, nil
}

// matrix returns the dataset's rows as a dense row-major matrix: its own
// for a dense dataset, each stored row expanded with its missing tail for a
// RowStore's.
func (d *Dataset) matrix() []float64 {
	if d.rows.refs == nil {
		return d.rows.chunks[0][:d.Len()*d.dim]
	}
	x := make([]float64, d.Len()*d.dim)
	for i := 0; i < d.Len(); i++ {
		row := x[i*d.dim : (i+1)*d.dim]
		for j := copy(row, d.Row(i)); j < d.dim; j++ {
			row[j] = math.NaN()
		}
	}
	return x
}

// predict returns the tree's raw contribution for a feature row, walking
// the node structs.
func (t *Tree) predict(row []float64) float64 {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return n.Value
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

// nodeRawPredict is the pointer-chasing walk over the Trees structs: the
// oracle every score of the compiled scorer must equal bit for bit.
func (m *Model) nodeRawPredict(row []float64) float64 {
	s := m.BaseScore
	for i := range m.Trees {
		s += m.Trees[i].predict(row)
	}
	return s
}

// referenceHorizon is the stability horizon PredictStable must report for
// one feature, found the plain way: walk every tree as nodeRawPredict does
// and keep the smallest threshold among the tests on that feature that came
// out true. Those are the tests a larger value could flip; no test at all
// leaves +Inf, and a NaN value, which is routed and not tested, NaN.
func (m *Model) referenceHorizon(row []float64, feature int) float64 {
	if math.IsNaN(row[feature]) {
		return math.NaN()
	}
	limit := math.Inf(1)
	for ti := range m.Trees {
		nodes := m.Trees[ti].Nodes
		i := int32(0)
		for nodes[i].Feature >= 0 {
			n := &nodes[i]
			switch v := row[n.Feature]; {
			case math.IsNaN(v) && n.MissingLeft, v <= n.Threshold:
				if !math.IsNaN(v) && int(n.Feature) == feature {
					limit = math.Min(limit, n.Threshold)
				}
				i = n.Left
			default:
				i = n.Right
			}
		}
	}
	return limit
}

// blockFlat is the inference kernel as it stood before the bitvector scorer
// replaced it: every tree's nodes packed into flat arrays, walked a block of
// matrixBlock rows at a time, level by level. It was PredictMatrix (and,
// under its first name, PredictBatch) and the trainer's score update; it
// lives on for the reference trainer and as a second oracle.
//
//	features[c]   split feature of internal node c
//	thresholds[c] split threshold
//	missSub[c]    NaN substitute: -Inf for missing-left, +Inf for missing-right
//	children[2c], children[2c+1]  left/right child words
//
// A child word w >= 0 is the packed index of an internal node, w < 0 is a
// leaf whose value lives at leaves[^w].
type blockFlat struct {
	dim  int
	base float64

	features   []int32
	thresholds []float64
	missSub    []float64
	children   []int32
	leaves     []float64
	roots      []int32 // per tree, child-word encoded (a tree may be one leaf)
}

const matrixBlock = 64

// compileBlockFlat packs trees that compileFlat has accepted.
func compileBlockFlat(dim int, base float64, trees []Tree) *blockFlat {
	f := &blockFlat{dim: dim, base: base}
	for ti := range trees {
		t := &trees[ti]
		words := make([]int32, len(t.Nodes))
		for i := range t.Nodes {
			n := &t.Nodes[i]
			if n.Feature < 0 {
				words[i] = ^int32(len(f.leaves))
				f.leaves = append(f.leaves, n.Value)
				continue
			}
			words[i] = int32(len(f.features))
			f.features = append(f.features, n.Feature)
			f.thresholds = append(f.thresholds, n.Threshold)
			if n.MissingLeft {
				f.missSub = append(f.missSub, math.Inf(-1))
			} else {
				f.missSub = append(f.missSub, math.Inf(1))
			}
			f.children = append(f.children, 0, 0)
		}
		for i := range t.Nodes {
			n := &t.Nodes[i]
			if n.Feature < 0 {
				continue
			}
			f.children[2*words[i]] = words[n.Left]
			f.children[2*words[i]+1] = words[n.Right]
		}
		f.roots = append(f.roots, words[0])
	}
	return f
}

// walkBlock advances every row of a block through one tree until all
// cursors are leaf words: cur[i] starts at root and ends < 0. All active
// rows take one level step per pass; rows that reach a leaf are dropped
// from the act list. root must be an internal word.
func (f *blockFlat) walkBlock(block []float64, cur, act []int32, root int32) {
	feats, ths, miss, kids := f.features, f.thresholds, f.missSub, f.children
	dim := f.dim
	for i := range cur {
		cur[i] = root
		act[i] = int32(i)
	}
	n := len(cur)
	for n > 0 {
		w := 0
		for _, i := range act[:n] {
			c := int(cur[i])
			v := block[int(i)*dim+int(feats[c])]
			if math.IsNaN(v) {
				v = miss[c]
			}
			b := 0
			if v > ths[c] {
				b = 1
			}
			nw := kids[2*c+b]
			cur[i] = nw
			act[w] = i
			w += int((^uint32(nw)) >> 31)
		}
		n = w
	}
}

// blocks calls fn for each run of at most matrixBlock rows of [0, n).
func blocks(n, workers int, fn func(lo, hi int)) {
	par.Ranges(n, workers, matrixBlock, func(lo, hi int) {
		for b := lo; b < hi; b += matrixBlock {
			fn(b, min(b+matrixBlock, hi))
		}
	})
}

// PredictMatrix fills out[i] with the positive-class probability of row i.
func (f *blockFlat) PredictMatrix(rows, out []float64, workers int) {
	mustMatrixDims(len(rows), len(out), f.dim)
	blocks(len(out), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f.base
		}
		f.accumBlock(rows, out, lo, hi)
		for i := lo; i < hi; i++ {
			out[i] = sigmoid(out[i])
		}
	})
}

// AccumulateRaw adds each row's summed raw tree contributions (no base
// score, no sigmoid) to inout[i]. It was the trainer's score update until
// the trainer started reading leaf values off its own row partition.
func (f *blockFlat) AccumulateRaw(rows, inout []float64, workers int) {
	mustMatrixDims(len(rows), len(inout), f.dim)
	blocks(len(inout), workers, func(lo, hi int) { f.accumBlock(rows, inout, lo, hi) })
}

func (f *blockFlat) accumBlock(rows, inout []float64, lo, hi int) {
	var cur, act [matrixBlock]int32
	block := rows[lo*f.dim : hi*f.dim]
	o := inout[lo:hi]
	c := cur[:hi-lo]
	a := act[:hi-lo]
	for _, root := range f.roots {
		leaves := f.leaves
		if root < 0 {
			lv := leaves[^root]
			for i := range o {
				o[i] += lv
			}
			continue
		}
		f.walkBlock(block, c, a, root)
		for i := range o {
			o[i] += leaves[^c[i]]
		}
	}
}

// referenceSplit is the split scan for one feature as it stood before the
// division-free pre-test and the running bound (PR 14's
// bestSplitForFeature), kept as the oracle FuzzSplitScanMatchesReference
// holds bestSplitForFeature to: every candidate's gain computed with its
// two divisions and compared against the best so far, with the
// empty-cell skip rule and its "bin 1 is never skipped" exception.
func referenceSplit(c *leafCand, feature int, cells []histBin) splitInfo {
	miss := cells[missingBin]
	totalC := int32(len(c.rows))
	const minData, minHess, minGain = minDataInLeaf, minSumHessianInLeaf, minGainToSplit
	if totalC-miss.count < minData {
		return splitInfo{}
	}
	totalG, totalH := c.sumGrad, c.sumHess
	parentObj := totalG * totalG / totalH
	bestBin, bestGain, bestMissLeft := 0, 0.0, false
	var accG, accH float64
	var accC int32
	for b := 1; b < len(cells)-1; b++ {
		cell := &cells[b]
		if cell.count == 0 && b > 1 && cell.grad == 0 && cell.hess == 0 {
			continue
		}
		accG += cell.grad
		accH += cell.hess
		accC += cell.count
		rc := totalC - accC
		if rc < minData {
			break
		}
		// Missing goes right.
		if accC >= minData {
			rg, rh := totalG-accG, totalH-accH
			if accH >= minHess && rh >= minHess {
				gain := accG*accG/accH + rg*rg/rh - parentObj
				if gain > minGain && (bestBin == 0 || gain > bestGain) {
					bestBin, bestGain, bestMissLeft = b, gain, false
				}
			}
		}
		// Missing goes left.
		if miss.count > 0 && accC+miss.count >= minData && rc-miss.count >= minData {
			lg, lh := accG+miss.grad, accH+miss.hess
			rg, rh := totalG-accG-miss.grad, totalH-accH-miss.hess
			if lh >= minHess && rh >= minHess {
				gain := lg*lg/lh + rg*rg/rh - parentObj
				if gain > minGain && (bestBin == 0 || gain > bestGain) {
					bestBin, bestGain, bestMissLeft = b, gain, true
				}
			}
		}
	}
	if bestBin == 0 {
		return splitInfo{}
	}
	return splitInfo{valid: true, gain: bestGain, feature: feature, bin: bestBin, missingLeft: bestMissLeft}
}

type refTrainer struct {
	p     Params
	d     *Dataset
	x     []float64   // d's rows as a dense row-major matrix
	edges [][]float64 // per-feature ascending bin upper bounds, last +Inf
	cols  [][]uint8   // cols[f][row]: 0 for NaN, else 1 + index of first edge >= value

	grad, hess []float64
	scores     []float64
}

// refQuantileEdges is quantileEdges as first written.
func refQuantileEdges(vals []float64, maxBins int) []float64 {
	if len(vals) == 0 {
		return []float64{math.Inf(1)}
	}
	sort.Float64s(vals)
	var distinct []float64
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			distinct = append(distinct, v)
		}
	}
	var edges []float64
	if len(distinct) <= maxBins {
		edges = append(edges, distinct...)
	} else {
		prev := math.Inf(-1)
		for b := 1; b <= maxBins; b++ {
			v := vals[b*len(vals)/maxBins-1]
			if v != prev {
				edges = append(edges, v)
				prev = v
			}
		}
	}
	edges[len(edges)-1] = math.Inf(1)
	return edges
}

// bin computes the edges and the column-major bin copy, one feature at a
// time.
func (t *refTrainer) bin() {
	n, dim := t.d.Len(), t.d.dim
	t.edges = make([][]float64, dim)
	t.cols = make([][]uint8, dim)
	for f := 0; f < dim; f++ {
		var vals []float64
		for i := 0; i < n; i++ {
			if v := t.x[i*dim+f]; !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		e := refQuantileEdges(vals, maxBins)
		t.edges[f] = e
		col := make([]uint8, n)
		for i := 0; i < n; i++ {
			v := t.x[i*dim+f]
			if math.IsNaN(v) {
				continue
			}
			lo, hi := 0, len(e)-1
			for lo < hi {
				mid := (lo + hi) / 2
				if e[mid] >= v {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			col[i] = uint8(lo + 1)
		}
		t.cols[f] = col
	}
}

func (t *refTrainer) numBins(f int) int { return len(t.edges[f]) + 1 }

// rowSums totals gradient and hessian over rows as partials of
// rowShardSize rows added in shard order, the decomposition the production
// trainer fixes so that its sums do not depend on the worker count.
func (t *refTrainer) rowSums(rows []int32) (sumG, sumH float64) {
	for lo := 0; lo < len(rows); lo += rowShardSize {
		hi := lo + rowShardSize
		if hi > len(rows) {
			hi = len(rows)
		}
		var g, h float64
		for _, r := range rows[lo:hi] {
			g += t.grad[r]
			h += t.hess[r]
		}
		sumG += g
		sumH += h
	}
	return sumG, sumH
}

// refCell is one (feature, bin) histogram cell.
type refCell struct {
	grad, hess float64
	count      int32
}

// refHist is a leaf's histogram: hist[f][bin].
type refHist [][]refCell

func (t *refTrainer) buildHist(idx []int32) refHist {
	h := make(refHist, len(t.cols))
	for f, col := range t.cols {
		cells := make([]refCell, t.numBins(f))
		for _, r := range idx {
			c := &cells[col[r]]
			c.grad += t.grad[r]
			c.hess += t.hess[r]
			c.count++
		}
		h[f] = cells
	}
	return h
}

// refSubtract sets parent = parent - sibling and returns it.
func refSubtract(parent, sibling refHist) refHist {
	for fi := range parent {
		for b := range parent[fi] {
			parent[fi][b].grad -= sibling[fi][b].grad
			parent[fi][b].hess -= sibling[fi][b].hess
			parent[fi][b].count -= sibling[fi][b].count
		}
	}
	return parent
}

type refSplit struct {
	valid       bool
	gain        float64
	feature     int
	bin         int
	missingLeft bool
}

type refLeaf struct {
	rows    []int32
	sumGrad float64
	sumHess float64
	nodeIdx int32
	hist    refHist
	best    refSplit
}

func (t *refTrainer) leafObjective(g, h float64) float64 {
	return g * g / h
}

func (t *refTrainer) leafValue(g, h float64) float64 {
	return -learningRate * g / h
}

// findBestSplit scans every feature in order and every bin of it in order,
// both missing directions per bin; a candidate replaces the best so far
// only on a strictly greater gain.
func (t *refTrainer) findBestSplit(c *refLeaf) refSplit {
	totalC := int32(len(c.rows))
	parentObj := t.leafObjective(c.sumGrad, c.sumHess)
	best := refSplit{}
	for f, cells := range c.hist {
		miss := cells[missingBin]
		var accG, accH float64
		var accC int32
		for b := 1; b < len(cells)-1; b++ {
			accG += cells[b].grad
			accH += cells[b].hess
			accC += cells[b].count
			t.evalSplit(&best, parentObj, f, b, false,
				accG, accH, accC,
				c.sumGrad-accG, c.sumHess-accH, totalC-accC)
			if miss.count > 0 {
				t.evalSplit(&best, parentObj, f, b, true,
					accG+miss.grad, accH+miss.hess, accC+miss.count,
					c.sumGrad-accG-miss.grad, c.sumHess-accH-miss.hess, totalC-accC-miss.count)
			}
		}
	}
	return best
}

func (t *refTrainer) evalSplit(best *refSplit, parentObj float64, f, b int, missingLeft bool,
	lg, lh float64, lc int32, rg, rh float64, rc int32) {
	if lc < minDataInLeaf || rc < minDataInLeaf {
		return
	}
	if lh < minSumHessianInLeaf || rh < minSumHessianInLeaf {
		return
	}
	gain := t.leafObjective(lg, lh) + t.leafObjective(rg, rh) - parentObj
	if gain <= minGainToSplit {
		return
	}
	if !best.valid || gain > best.gain {
		*best = refSplit{valid: true, gain: gain, feature: f, bin: b, missingLeft: missingLeft}
	}
}

func (t *refTrainer) buildTree(rows []int32) *Tree {
	sumG, sumH := t.rowSums(rows)
	tree := &Tree{}
	tree.Nodes = append(tree.Nodes, node{Feature: -1, Value: t.leafValue(sumG, sumH)})

	root := &refLeaf{rows: append([]int32(nil), rows...), sumGrad: sumG, sumHess: sumH}
	root.hist = t.buildHist(root.rows)
	root.best = t.findBestSplit(root)

	open := []*refLeaf{root}
	numLeaves := 1
	for numLeaves < t.p.NumLeaves {
		bi := -1
		for i, c := range open {
			if c.best.valid && (bi < 0 || c.best.gain > open[bi].best.gain) {
				bi = i
			}
		}
		if bi < 0 {
			break
		}
		c := open[bi]
		open[bi] = open[len(open)-1]
		open = open[:len(open)-1]

		left, right := t.applySplit(tree, c)
		numLeaves++

		if len(left.rows) <= len(right.rows) {
			left.hist = t.buildHist(left.rows)
			right.hist = refSubtract(c.hist, left.hist)
		} else {
			right.hist = t.buildHist(right.rows)
			left.hist = refSubtract(c.hist, right.hist)
		}
		left.best = t.findBestSplit(left)
		right.best = t.findBestSplit(right)
		open = append(open, left, right)
	}
	if numLeaves == 1 {
		return nil
	}
	return tree
}

func (t *refTrainer) applySplit(tree *Tree, c *refLeaf) (left, right *refLeaf) {
	s := c.best
	col := t.cols[s.feature]
	leftRows := make([]int32, 0, len(c.rows))
	rightRows := make([]int32, 0, len(c.rows))
	var lg, lh float64
	for _, r := range c.rows {
		b := col[r]
		goLeft := false
		if b == missingBin {
			goLeft = s.missingLeft
		} else {
			goLeft = int(b) <= s.bin
		}
		if goLeft {
			leftRows = append(leftRows, r)
			lg += t.grad[r]
			lh += t.hess[r]
		} else {
			rightRows = append(rightRows, r)
		}
	}

	li := int32(len(tree.Nodes))
	tree.Nodes = append(tree.Nodes, node{Feature: -1, Value: t.leafValue(lg, lh)})
	ri := int32(len(tree.Nodes))
	tree.Nodes = append(tree.Nodes, node{Feature: -1, Value: t.leafValue(c.sumGrad-lg, c.sumHess-lh)})

	n := &tree.Nodes[c.nodeIdx]
	n.Feature = int32(s.feature)
	n.Threshold = t.edges[s.feature][s.bin-1]
	n.MissingLeft = s.missingLeft
	n.Left, n.Right = li, ri
	n.Value = 0

	left = &refLeaf{rows: leftRows, sumGrad: lg, sumHess: lh, nodeIdx: li}
	right = &refLeaf{rows: rightRows, sumGrad: c.sumGrad - lg, sumHess: c.sumHess - lh, nodeIdx: ri}
	return left, right
}

// refColumn describes how one column of a random oracle dataset is drawn.
type refColumn struct {
	nanRate  float64 // share of NaN cells
	distinct int     // 0: continuous; 1: constant; k: k distinct values
}

// refDataset draws a seeded dataset whose labels depend on several columns'
// values and on which cells are missing, so trees split on dense, sparse
// and few-valued columns and learn both missing directions.
func refDataset(n int, cols []refColumn, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := NewDataset(len(cols))
	row := make([]float64, len(cols))
	for i := 0; i < n; i++ {
		score := 0.0
		for f, c := range cols {
			v := rng.Float64()
			switch {
			case c.distinct == 1:
				v = 3
			case c.distinct > 1:
				v = float64(int(v * float64(c.distinct)))
			default:
				v *= 10
			}
			if rng.Float64() < c.nanRate {
				v = math.NaN()
				if f%3 == 0 {
					score += 0.8
				}
			} else if f%2 == 0 {
				score += math.Sin(v + float64(f))
			}
			row[f] = v
		}
		y := 0.0
		if score+rng.NormFloat64()*0.3 > 0.4 {
			y = 1
		}
		d.Append(row, y)
	}
	return d
}

// TestTrainMatchesReference holds Train to the reference trainer byte for
// byte on Model.Save, across the data shapes the skip rules of the split
// scan care about (very sparse, all-NaN, constant and few-valued columns,
// and a window's NaN suffix, which kills features at every depth), the
// default and the widest trees, and several worker counts.
func TestTrainMatchesReference(t *testing.T) {
	narrow := []refColumn{
		{0, 0}, {0, 5}, {0, 1}, {1, 0}, {0.9, 0}, {0.93, 0}, {0.97, 0}, {0.95, 4},
		{0.5, 0}, {0.3, 2}, {0.99, 0}, {0.67, 0},
	}
	// Wide enough (40 columns of 256 bins) that the split scan crosses
	// parHistMinWork and fans out over features when Workers > 1.
	var wide []refColumn
	for f := 0; f < 40; f++ {
		wide = append(wide, refColumn{nanRate: float64(f%10) / 10.5})
	}
	datasets := []struct {
		name string
		d    *Dataset
	}{
		{"narrow300", refDataset(300, narrow, 1)},
		{"narrow2500", refDataset(2500, narrow, 2)},
		{"wide1500", refDataset(1500, wide, 3)},
		// A training window's shape: gap column i is present only in rows
		// with more than i gaps, so each split leaves fewer rows to the
		// later columns and leaves at every depth see some of them die.
		{"window2500", windowDataset(2500, 3)},
	}
	variants := []struct {
		name string
		mut  func(*Params)
	}{
		{"default", func(p *Params) {}},
		// The widest trees the scorer takes; the smaller datasets' trees run
		// out of splits, not of leaves.
		{"leaves64", func(p *Params) { p.NumLeaves = maxLeaves }},
	}
	for _, ds := range datasets {
		for _, v := range variants {
			p := DefaultParams()
			p.NumIterations = 12
			v.mut(&p)
			t.Run(ds.name+"/"+v.name, func(t *testing.T) {
				t.Parallel()
				ref, err := referenceTrain(ds.d, p)
				if err != nil {
					t.Fatal(err)
				}
				want := modelBytes(t, ref)
				if len(ref.Trees) == 0 {
					t.Fatal("reference trained no tree; the case compares nothing")
				}
				for _, workers := range []int{1, 2, 8} {
					p.Workers = workers
					m, err := Train(ds.d, p)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want, modelBytes(t, m)) {
						t.Errorf("workers=%d: Train differs from referenceTrain", workers)
					}
				}
			})
		}
	}
}

// TestEmptyFirstBinStillSplitsOnMissing is the case a shortcut in the split
// scan once got wrong: in a leaf whose rows leave a feature's first data bin
// empty, the candidate "after bin 1, missing left" is the {missing | present}
// split — there is no earlier bin whose gain it repeats, so it must be
// evaluated even though the bin's cell is all zero.
func TestEmptyFirstBinStillSplitsOnMissing(t *testing.T) {
	d := NewDataset(2)
	nan := math.NaN()
	for i := 0; i < 200; i++ {
		d.Append([]float64{0, 1}, 0) // group A: the only rows in feature 1's first bin
	}
	for i := 0; i < 100; i++ {
		d.Append([]float64{1, nan}, 1) // group B, missing
		d.Append([]float64{1, 5}, 0)   // group B, present
	}
	p := DefaultParams()
	p.NumIterations = 1
	p.Workers = 1
	m, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	// The root ties between feature 0 (A | B) and feature 1 missing-right
	// ({1} | {5, NaN}) and takes the lower feature; group B's leaf then has
	// nothing in feature 1's bin 1.
	nodes := m.Trees[0].Nodes
	if nodes[0].Feature != 0 {
		t.Fatalf("root splits on feature %d, want 0", nodes[0].Feature)
	}
	found := false
	for _, n := range nodes[1:] {
		if n.Feature == 1 && n.MissingLeft && n.Threshold == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("no {missing | present} split on feature 1 below the root: %+v", nodes)
	}
	if miss, present := m.Predict([]float64{1, nan}), m.Predict([]float64{1, 5}); miss <= present {
		t.Errorf("group B scores missing %.3f <= present %.3f, want them told apart", miss, present)
	}
	ref, err := referenceTrain(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, ref), modelBytes(t, m)) {
		t.Error("Train differs from referenceTrain")
	}
}
