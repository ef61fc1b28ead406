package gbdt

import (
	"fmt"
	"math"
	"slices"

	"lfo/internal/par"
)

// rowShardSize is the fixed row-shard granularity for parallel gradient
// work. It depends only on the dataset, never on the worker count, so
// per-shard accumulators reduced in shard order give bit-identical sums
// for any Params.Workers value.
const rowShardSize = 8192

// parHistMinWork gates feature-parallel histogram/split work: leaves with
// less scanning work than this run inline, where goroutine fan-out costs
// more than it saves. The gate depends only on the data, so it cannot
// break cross-worker-count determinism.
const parHistMinWork = 1 << 13

// Train fits a boosted-tree classifier to the dataset.
func Train(d *Dataset, p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("gbdt: empty dataset")
	}

	t := &trainer{
		p:       p,
		d:       d,
		workers: par.Resolve(p.Workers),
	}
	t.b = buildBinner(d)
	t.bins, t.rowStart = binRows(d, t.b)
	t.offsets = t.b.histOffsets()

	n := d.Len()
	t.grad = make([]float64, n)
	t.hess = make([]float64, n)
	t.scores = make([]float64, n)
	t.arena = make([]int32, n)
	t.rightRows = make([]int32, n)
	maxNodes := 2*p.NumLeaves - 1
	t.nodes = make([]node, 0, maxNodes)
	t.cands = make([]leafCand, 0, maxNodes)
	t.liveBuf = make([]int32, 0, maxNodes*d.Dim())
	t.bestScratch = make([]splitInfo, d.Dim())
	t.histCols = make([]histCol, d.Dim())
	t.gains = make([]float64, 0, p.NumLeaves)

	// Base score: log-odds of the positive rate, clamped away from
	// degenerate infinities.
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
	for iter := 0; iter < p.NumIterations; iter++ {
		t.computeGradients()
		leaves := t.buildTree()
		if leaves == nil {
			// No split improves the objective. The scores stay as they
			// are, so every later round would see these gradients again.
			break
		}
		t.updateScores(leaves)
		m.Trees = append(m.Trees, Tree{Nodes: append([]node(nil), t.nodes...)})
	}
	// Trainer output always compiles: thresholds come from finite bin
	// edges and leaf values from hessian-guarded ratios.
	if err := m.Compile(); err != nil {
		return nil, fmt.Errorf("gbdt: compiling model: %w", err)
	}
	return m, nil
}

type trainer struct {
	p        Params
	d        *Dataset
	b        *binner
	bins     []uint8 // the binned rows without their missing tails (binRows)
	rowStart []int32 // row r's bins are bins[rowStart[r]:rowStart[r+1]]
	offsets  []int   // feature f's histogram cells are offsets[f]:offsets[f+1]
	workers  int

	grad, hess []float64
	scores     []float64

	// nodes is the tree under construction; it becomes the Tree.
	nodes []node

	// Scratch reused across boosting rounds to avoid per-iteration churn.
	partG       []float64   // per-shard gradient sums (rowSums)
	partH       []float64   // per-shard hessian sums (rowSums)
	bestScratch []splitInfo // per-live-feature split candidates (findBestSplit)
	histCols    []histCol   // buildHist's live columns
	gains       []float64   // releaseSettled's open-leaf gains
	histFree    []histogram // recycled histogram storage
	liveBuf     []int32     // the tree's per-leaf live feature lists
	arena       []int32     // the tree's rows; every leaf owns a sub-range
	rightRows   []int32     // applySplit's right-side staging
	cands       []leafCand  // the tree's leaves, open and split
	open        []*leafCand // leaves not split yet
}

// computeGradients evaluates the logistic loss gradient/hessian at the
// current scores. Writes are per-row, so the fan-out is deterministic.
func (t *trainer) computeGradients() {
	par.RangesArg(len(t.grad), t.workers, 2048, t, gradientRange)
}

func gradientRange(t *trainer, lo, hi int) {
	for i := lo; i < hi; i++ {
		p := sigmoid(t.scores[i])
		t.grad[i] = p - t.d.Label(i)
		t.hess[i] = p * (1 - p)
	}
}

// rowSums totals gradient/hessian mass over rows as fixed-size shard
// partials reduced in shard order — bit-identical for any worker count.
func (t *trainer) rowSums(rows []int32) (sumG, sumH float64) {
	shards := par.NumShards(len(rows), rowShardSize)
	if cap(t.partG) < shards {
		t.partG = make([]float64, shards)
		t.partH = make([]float64, shards)
	}
	partG := t.partG[:shards]
	partH := t.partH[:shards]
	par.Shards(len(rows), rowShardSize, t.workers, func(s, lo, hi int) {
		var g, h float64
		for _, r := range rows[lo:hi] {
			g += t.grad[r]
			h += t.hess[r]
		}
		partG[s] = g
		partH[s] = h
	})
	for s := 0; s < shards; s++ {
		sumG += partG[s]
		sumH += partH[s]
	}
	return sumG, sumH
}

// histBin accumulates gradient statistics for one (feature, bin) cell.
type histBin struct {
	grad, hess float64
	count      int32
}

// histogram is the per-leaf gradient histogram over every feature, stored
// flat: feature f owns cells offsets[f]:offsets[f+1] of the trainer's
// offsets. Cells of features not live in the leaf are stale.
type histogram []histBin

// histOffsets lays out the histogram: feature f's cells start at
// offsets[f], and offsets[len(edges)] is the histogram's length.
func (b *binner) histOffsets() []int {
	offsets := make([]int, len(b.edges)+1)
	for f := range b.edges {
		offsets[f+1] = offsets[f] + b.numBins(f)
	}
	return offsets
}

// newHistogram hands out a histogram with zeroed live cells, recycling
// released storage: steady-state training allocates no per-leaf buffers.
func (t *trainer) newHistogram(live []int32) histogram {
	need := t.offsets[len(t.offsets)-1]
	n := len(t.histFree)
	if n == 0 || cap(t.histFree[n-1]) < need {
		return make(histogram, need)
	}
	h := t.histFree[n-1][:need]
	t.histFree = t.histFree[:n-1]
	for _, f := range live {
		clear(h[t.offsets[f]:t.offsets[f+1]])
	}
	return h
}

// releaseHist returns the leaf's histogram, if it holds one, to the pool.
func (t *trainer) releaseHist(c *leafCand) {
	if c.hist != nil {
		t.histFree = append(t.histFree, c.hist)
		c.hist = nil
	}
}

// histCol is a live feature's column in the binned rows and first cell.
type histCol struct{ feat, off int }

// histArgs binds one buildHist call for par.RangesArg.
type histArgs struct {
	t    *trainer
	h    histogram
	cols []histCol
	idx  []int32
}

// buildHist fills the live features' cells from the rows in idx,
// row-major: a row's gradient and hessian are loaded once and added to one
// cell per live feature, read from the row's contiguous bin bytes, or to
// the missing cell for a feature past them. Every cell receives its rows
// in idx order — the order a feature-by-feature fill adds them in — so the
// sums are bit-identical to it. With more than one worker each owns a
// contiguous slice of the live features and writes only that slice's
// cells, which changes no cell's order either.
func (t *trainer) buildHist(h histogram, live []int32, idx []int32) {
	cols := t.histCols[:len(live)]
	for k, f := range live {
		cols[k] = histCol{int(f), t.offsets[f]}
	}
	workers := t.workers
	if len(idx)*len(cols) < parHistMinWork {
		workers = 1
	}
	par.RangesArg(len(cols), workers, 1, histArgs{t, h, cols, idx}, buildHistRange)
}

func buildHistRange(a histArgs, lo, hi int) {
	t := a.t
	cols := a.cols[lo:hi]
	bins := a.h
	for _, r := range a.idx {
		g, hs := t.grad[r], t.hess[r]
		row := t.bins[t.rowStart[r]:t.rowStart[r+1]]
		k := 0 // cols are in feature order: the first ones lie in the row
		for ; k < len(cols) && cols[k].feat < len(row); k++ {
			c := &bins[cols[k].off+int(row[cols[k].feat])]
			c.grad += g
			c.hess += hs
			c.count++
		}
		for _, col := range cols[k:] {
			c := &bins[col.off+missingBin]
			c.grad += g
			c.hess += hs
			c.count++
		}
	}
}

// subtractCells sets parent = parent - sibling cell by cell.
func subtractCells(parent, sibling []histBin) {
	sibling = sibling[:len(parent)]
	for i := range parent {
		parent[i].grad -= sibling[i].grad
		parent[i].hess -= sibling[i].hess
		parent[i].count -= sibling[i].count
	}
}

// splitInfo describes the best split found for a leaf.
type splitInfo struct {
	valid       bool
	gain        float64
	feature     int
	bin         int // non-missing bins <= bin go left
	missingLeft bool
}

// leafCand is a leaf during leaf-wise growth.
type leafCand struct {
	rows    []int32 // a sub-range of the trainer's arena
	sumGrad float64
	sumHess float64
	nodeIdx int32
	// live lists, ascending, the features that may still split in the
	// leaf's subtree; its own list, in liveBuf.
	live []int32
	hist histogram // nil once the leaf can no longer split
	best splitInfo
}

// leafValue is the shrunk optimal leaf weight.
func leafValue(g, h float64) float64 {
	return -learningRate * g / h
}

// canSplit reports whether the leaf can have an admissible split: both
// sides need minDataInLeaf rows, and a split needs a live feature.
func canSplit(c *leafCand) bool {
	return len(c.rows) >= 2*minDataInLeaf && len(c.live) > 0
}

// splitArgs binds one findBestSplit call for par.RangesArg.
type splitArgs struct {
	t       *trainer
	c       *leafCand
	sibling histogram
}

// findBestSplit scans the histogram for the leaf's best split. The live
// features are scanned in parallel into per-feature candidates, then
// reduced in feature order with a strictly-greater gain comparison — the
// same first-wins tie-break (lowest feature index, lowest bin) as a
// sequential scan, so the chosen split is identical for any worker count.
//
// A non-nil sibling means c.hist still holds the parent's histogram and c
// is the larger child: each live feature's cells first become parent -
// sibling (histogram subtraction) and are scanned at once, while they are
// in the nearest cache. Every live cell is subtracted exactly once,
// whatever the scan skips. Then c.live loses every feature in which the
// leaf has fewer than minDataInLeaf non-missing rows: no descendant, whose
// rows are a subset of the leaf's, can split on it either.
func (t *trainer) findBestSplit(c *leafCand, sibling histogram) splitInfo {
	workers := t.workers
	if len(c.hist) < parHistMinWork {
		workers = 1
	}
	par.RangesArg(len(c.live), workers, 1, splitArgs{t, c, sibling}, bestSplitRange)

	best := splitInfo{}
	kept := c.live[:0]
	for k, f := range c.live {
		if s := &t.bestScratch[k]; s.valid && (!best.valid || s.gain > best.gain) {
			best = *s
		}
		if len(c.rows)-int(c.hist[t.offsets[f]+missingBin].count) >= minDataInLeaf {
			kept = append(kept, f)
		}
	}
	c.live = kept
	return best
}

// bestSplitRange scans live features lo..hi-1 in order, each from the best
// gain of the ones before it in the range: the reduction takes a later
// feature only on a strictly greater gain, so the overall winner, which
// beats every feature before it, is found whatever the ranges are.
func bestSplitRange(a splitArgs, lo, hi int) {
	t := a.t
	bound := float64(minGainToSplit)
	for k := lo; k < hi; k++ {
		f := a.c.live[k]
		cells := a.c.hist[t.offsets[f]:t.offsets[f+1]]
		if a.sibling != nil {
			subtractCells(cells, a.sibling[t.offsets[f]:t.offsets[f+1]])
		}
		t.bestScratch[k] = bestSplitForFeature(a.c, int(f), cells, bound)
		if s := &t.bestScratch[k]; s.valid {
			bound = s.gain
		}
	}
}

// The scan's pre-test (bestSplitForFeature) allows preTestMargin, far more
// than its few units in the last place of rounding, and runs only where
// its cut lies in [1/preTestLimit, preTestLimit], where no product under-
// or overflows; DESIGN.md ("Trainer inner loops") writes the bound out.
const (
	preTestMargin = 1e-9
	preTestLimit  = 0x1p300
)

// preTestCut returns (thr + parentObj)·(1 − preTestMargin), or NaN, which
// rejects nothing, where the pre-test is off.
func preTestCut(thr, parentObj float64) float64 {
	s := thr + parentObj
	if thr < 0 || !(s >= 1/preTestLimit && s <= preTestLimit) {
		return math.NaN()
	}
	return s * (1 - preTestMargin)
}

// bestSplitForFeature scans one feature's histogram cells in leaf c for its
// best split whose gain beats thr (at least minGainToSplit): for b = 1, …
// "bins 1..b left, missing right" and then, when the leaf has missing rows,
// "bins 1..b and missing left"; the last bin is excluded (empty right
// side). A candidate replaces the best so far only on a strictly greater
// gain, so among equal gains the first one scanned wins, and an empty
// cell, whose candidates repeat the previous bin's, never does. What is
// skipped cannot win:
//
//   - Fewer non-missing rows than minDataInLeaf: every candidate has a
//     side made only of non-missing rows (the left when missing goes
//     right, the right when missing goes left), so none is admissible.
//   - The right side only shrinks as b grows; once it has fewer than
//     minDataInLeaf rows with missing sent right, no later candidate in
//     either direction is admissible.
//   - The divisions of a candidate that fails the pre-test: with the two
//     sides' hessian sums lh and rh (≥ minSumHessianInLeaf > 0), gain > thr
//     means a²·rh + r²·lh > (thr + parentObj)·lh·rh, which rounding cannot
//     miss by preTestMargin.
func bestSplitForFeature(c *leafCand, feature int, cells []histBin, thr float64) splitInfo {
	miss := cells[missingBin]
	totalC := int32(len(c.rows))
	if totalC-miss.count < minDataInLeaf {
		return splitInfo{}
	}
	totalG, totalH := c.sumGrad, c.sumHess
	parentObj := totalG * totalG / totalH
	cut := preTestCut(thr, parentObj)
	bestBin, bestMissLeft := 0, false
	var accG, accH float64
	var accC int32
	for b := 1; b < len(cells)-1; b++ {
		cell := &cells[b]
		accG += cell.grad
		accH += cell.hess
		accC += cell.count
		rc := totalC - accC
		if rc < minDataInLeaf {
			break
		}
		// Missing goes right.
		if accC >= minDataInLeaf {
			rg, rh := totalG-accG, totalH-accH
			if accH >= minSumHessianInLeaf && rh >= minSumHessianInLeaf &&
				!(accG*accG*rh+rg*rg*accH < cut*accH*rh) {
				gain := accG*accG/accH + rg*rg/rh - parentObj
				if gain > thr {
					bestBin, thr, bestMissLeft = b, gain, false
					cut = preTestCut(thr, parentObj)
				}
			}
		}
		// Missing goes left.
		if miss.count > 0 && accC+miss.count >= minDataInLeaf && rc-miss.count >= minDataInLeaf {
			lg, lh := accG+miss.grad, accH+miss.hess
			rg, rh := totalG-accG-miss.grad, totalH-accH-miss.hess
			if lh >= minSumHessianInLeaf && rh >= minSumHessianInLeaf &&
				!(lg*lg*rh+rg*rg*lh < cut*lh*rh) {
				gain := lg*lg/lh + rg*rg/rh - parentObj
				if gain > thr {
					bestBin, thr, bestMissLeft = b, gain, true
					cut = preTestCut(thr, parentObj)
				}
			}
		}
	}
	if bestBin == 0 {
		return splitInfo{}
	}
	return splitInfo{valid: true, gain: thr, feature: feature, bin: bestBin, missingLeft: bestMissLeft}
}

// buildTree grows one tree leaf-wise into t.nodes and returns its leaves,
// whose row ranges partition the rows. It returns nil when no split
// improves the objective.
//
// A histogram lives only while its leaf may still be split, or while its
// sibling still needs it for subtraction; then it goes back to the pool, so
// a tree holds few at a time.
func (t *trainer) buildTree() []*leafCand {
	// The arena holds every row once, in row order; a split reorders its
	// leaf's range in place, so each tree starts from a fresh fill.
	for i := range t.arena {
		t.arena[i] = int32(i)
	}
	sumG, sumH := t.rowSums(t.arena)
	t.nodes = append(t.nodes[:0], node{Feature: -1, Value: leafValue(sumG, sumH)})
	t.liveBuf = t.liveBuf[:t.d.Dim()]
	for i := range t.liveBuf {
		t.liveBuf[i] = int32(i)
	}

	t.cands = append(t.cands[:0], leafCand{rows: t.arena, sumGrad: sumG, sumHess: sumH, live: t.liveBuf})
	root := &t.cands[0]
	if canSplit(root) {
		root.hist = t.newHistogram(root.live)
		t.buildHist(root.hist, root.live, root.rows)
		root.best = t.findBestSplit(root, nil)
	}

	open := append(t.open[:0], root)
	for len(open) < t.p.NumLeaves {
		t.releaseSettled(open)
		// Pick the open leaf with the highest gain.
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

		left, right := t.applySplit(c)
		small, large := left, right
		if len(left.rows) > len(right.rows) {
			small, large = right, left
		}
		// Children that can never split get no histogram and no scan: when
		// they bring the tree to NumLeaves, or when the larger, and so both,
		// cannot split.
		if len(open)+2 == t.p.NumLeaves || !canSplit(large) {
			t.releaseHist(c)
		} else {
			// Histogram subtraction: materialize the smaller child,
			// derive the sibling from the parent. A smaller child that
			// cannot split is built for the subtraction only.
			small.hist = t.newHistogram(small.live)
			t.buildHist(small.hist, small.live, small.rows)
			large.hist, c.hist = c.hist, nil
			if canSplit(small) {
				small.best = t.findBestSplit(small, nil)
			}
			large.best = t.findBestSplit(large, small.hist)
		}
		open = append(open, left, right)
	}
	for _, c := range open {
		t.releaseHist(c)
	}
	t.open = open
	if len(open) == 1 {
		return nil
	}
	return open
}

// releaseSettled returns to the pool the histograms of the open leaves that
// will never be split: those with no valid split, and those that at least
// as many others outrank, by a strictly greater gain, as splits remain —
// every split takes the best open leaf, so all of those would go first.
func (t *trainer) releaseSettled(open []*leafCand) {
	cut := math.Inf(-1)
	if picks := t.p.NumLeaves - len(open); picks < len(open) {
		gains := t.gains[:0]
		for _, c := range open {
			if c.best.valid {
				gains = append(gains, c.best.gain)
			}
		}
		if len(gains) > picks {
			slices.Sort(gains)
			cut = gains[len(gains)-picks]
		}
		t.gains = gains
	}
	for _, c := range open {
		if !c.best.valid || c.best.gain < cut {
			t.releaseHist(c)
		}
	}
}

// applySplit partitions the leaf's rows and rewrites its tree node as an
// internal split with two fresh leaves. The partition is stable and in
// place (LightGBM's DataPartition): left rows close up at the front of the
// leaf's arena range in their order, right rows are staged and copied in
// behind them in theirs, so each child sees its rows in the order two
// appended slices would hold them and every later sum over them is
// unchanged.
func (t *trainer) applySplit(c *leafCand) (left, right *leafCand) {
	s := c.best
	splitBin := uint8(s.bin)
	rows := c.rows
	staged := t.rightRows[:len(rows)]
	nl, nr := 0, 0
	var lg, lh float64
	for _, r := range rows {
		b := t.bin(r, s.feature)
		goLeft := b <= splitBin
		if b == missingBin {
			goLeft = s.missingLeft
		}
		if goLeft {
			rows[nl] = r
			nl++
			lg += t.grad[r]
			lh += t.hess[r]
		} else {
			staged[nr] = r
			nr++
		}
	}
	copy(rows[nl:], staged[:nr])

	li := int32(len(t.nodes))
	ri := li + 1
	t.nodes = append(t.nodes,
		node{Feature: -1, Value: leafValue(lg, lh)},
		node{Feature: -1, Value: leafValue(c.sumGrad-lg, c.sumHess-lh)})

	n := &t.nodes[c.nodeIdx]
	n.Feature = int32(s.feature)
	n.Threshold = t.b.threshold(s.feature, s.bin)
	n.MissingLeft = s.missingLeft
	n.Left, n.Right = li, ri
	n.Value = 0

	// Each child's scan prunes its own copy of the parent's live list.
	nf, at := len(c.live), len(t.liveBuf)
	t.liveBuf = append(append(t.liveBuf, c.live...), c.live...)
	t.cands = append(t.cands,
		leafCand{rows: rows[:nl:nl], sumGrad: lg, sumHess: lh, nodeIdx: li, live: t.liveBuf[at : at+nf : at+nf]},
		leafCand{rows: rows[nl:], sumGrad: c.sumGrad - lg, sumHess: c.sumHess - lh, nodeIdx: ri,
			live: t.liveBuf[at+nf : at+2*nf : at+2*nf]})
	return &t.cands[len(t.cands)-2], &t.cands[len(t.cands)-1]
}

// updateScores adds the finished tree to the boosting scores. Every row
// sits in its leaf's row range, so it takes that leaf's value with no
// walk: the value a walk over the raw row would reach, since a split on
// bin s has threshold edge[s-1], and a value's bin is 1 + the index of the
// first edge >= it, so bin <= s iff value <= edge.
func (t *trainer) updateScores(leaves []*leafCand) {
	for _, c := range leaves {
		v := t.nodes[c.nodeIdx].Value
		for _, r := range c.rows {
			t.scores[r] += v
		}
	}
}

// bin returns row r's bin of feature f: missingBin past the row's bytes.
func (t *trainer) bin(r int32, f int) uint8 {
	if i := int(t.rowStart[r]) + f; i < int(t.rowStart[r+1]) {
		return t.bins[i]
	}
	return missingBin
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
