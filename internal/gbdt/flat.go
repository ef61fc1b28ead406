package gbdt

import (
	"fmt"
	"math"

	"lfo/internal/par"
)

// This file is the flattened inference kernel. Compile packs every tree's
// nodes into contiguous SoA slices so a walk is pure index arithmetic over
// four flat arrays instead of pointer-chasing 40-byte node structs:
//
//	features[c]   split feature of internal node c
//	thresholds[c] split threshold (validated finite at compile time)
//	missSub[c]    NaN substitute: -Inf for missing-left, +Inf for
//	              missing-right, so the learned default direction costs one
//	              IsNaN test plus the same single compare as a real value
//	children[2c], children[2c+1]  left/right child words
//
// A child word w encodes both the edge and the leaf/internal distinction:
// w >= 0 is the packed index of an internal node, w < 0 is a leaf whose
// value lives at leaves[^w]. That removes the per-node "is this a leaf"
// struct load and shrinks the ensemble's working set ~2.5x (a trained
// 30-tree window model drops from ~73 KB of node structs to ~26 KB of
// packed arrays, L1/L2-resident), which is where the single-row speedup
// comes from: the pointer walk's per-visit cost is dominated by pulling
// scattered 40-byte structs through the cache hierarchy.
//
// Two walk shapes share the layout:
//
//   - RawPredict walks tree-by-tree with ordinary conditional branches.
//     For a single row the branch predictor + out-of-order speculation
//     already overlap consecutive tree walks, so the branchy loop beats
//     any hand-interleaved or branch-free (CMOV) variant, whose select
//     serializes the load-to-load dependence chain.
//
//   - scoreBlock walks a block of up to matrixBlock rows
//     level-synchronously per tree (LightGBM's batch-major trick): every
//     still-active row advances one level per pass, so the tree's packed
//     arrays stay hot across the whole block and the rows' independent
//     load chains overlap. Direction selects compile branch-free (SETcc),
//     which matters here: with many distinct rows in flight the
//     per-direction branches of a per-row walk are data-dependent noise
//     that mispredicts constantly, while the block walk replaces them
//     with straight-line dataflow. Rows that reach a leaf are dropped
//     from the active list branchlessly (compaction, not masking), so
//     finished rows cost nothing and total work equals true visit count.
//
// Accumulation order is base + tree 0 + tree 1 + ... in both shapes, so
// results are byte-identical to the pointer-walk oracle (Tree.predict)
// for any block or worker split.

// matrixBlock is the row-block size of the batch-major walk and the
// minimum per-goroutine chunk of the batched entry points. A block's rows
// and cursor state stay cache-resident while every tree walks the whole
// block.
const matrixBlock = 64

// Flat is a Model compiled into the packed layout above. It is immutable
// after Compile and safe for concurrent use.
type Flat struct {
	dim  int
	base float64

	features   []int32
	thresholds []float64
	missSub    []float64
	children   []int32 // 2 words per internal node: [2c]=left, [2c+1]=right
	leaves     []float64
	roots      []int32 // per tree, child-word encoded (a tree may be one leaf)
}

// compileFlat validates a model's shape and packs it. It is the single
// validation point for hostile models: Load and Compile both funnel here.
// Beyond the structural checks the pointer walker needs (features within
// dim, strictly forward children, so every walk terminates), the flat
// encoding needs finite thresholds — the ±Inf missSub trick compares the
// substitute against the threshold, which is only exact when thresholds
// are finite — and finite base/leaf values so a hostile stream cannot
// launder NaN into every score. A model with zero trees is valid (it
// predicts sigmoid(base)), matching the warm-start models core accepts.
func compileFlat(dim int, base float64, trees []Tree) (*Flat, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("gbdt: model has invalid dim %d", dim)
	}
	if !isFinite(base) {
		return nil, fmt.Errorf("gbdt: model base score %v is not finite", base)
	}
	internal, leaves := 0, 0
	for ti := range trees {
		t := &trees[ti]
		if len(t.Nodes) == 0 {
			return nil, fmt.Errorf("gbdt: model tree %d has no nodes", ti)
		}
		for i := range t.Nodes {
			n := &t.Nodes[i]
			if n.Feature < 0 {
				if !isFinite(n.Value) {
					return nil, fmt.Errorf("gbdt: model tree %d leaf %d has non-finite value %v", ti, i, n.Value)
				}
				leaves++
				continue
			}
			if int(n.Feature) >= dim {
				return nil, fmt.Errorf("gbdt: model tree %d node %d splits feature %d, dim %d", ti, i, n.Feature, dim)
			}
			if !isFinite(n.Threshold) {
				return nil, fmt.Errorf("gbdt: model tree %d node %d has non-finite threshold %v", ti, i, n.Threshold)
			}
			if n.Left <= int32(i) || int(n.Left) >= len(t.Nodes) ||
				n.Right <= int32(i) || int(n.Right) >= len(t.Nodes) {
				return nil, fmt.Errorf("gbdt: model tree %d node %d has out-of-order children (%d, %d)", ti, i, n.Left, n.Right)
			}
			internal++
		}
	}
	f := &Flat{
		dim:        dim,
		base:       base,
		features:   make([]int32, 0, internal),
		thresholds: make([]float64, 0, internal),
		missSub:    make([]float64, 0, internal),
		children:   make([]int32, 0, 2*internal),
		leaves:     make([]float64, 0, leaves),
		roots:      make([]int32, 0, len(trees)),
	}
	for ti := range trees {
		t := &trees[ti]
		// First pass: assign each tree-local node its child word — packed
		// internal index or complemented leaf slot — in node order, which
		// keeps packed indices strictly forward exactly like the source
		// indices, so flat walks terminate for the same reason.
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
			f.children = append(f.children, 0, 0) // patched in the second pass
		}
		// Second pass: resolve child edges through the word map.
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
	// Encoding self-check: every root and child word must resolve inside
	// the packed arrays. The construction above guarantees this; checking
	// it here means any future change to the word encoding fails loudly at
	// compile time instead of as an out-of-bounds panic mid-walk.
	for _, w := range f.roots {
		if err := f.checkWord(w); err != nil {
			return nil, err
		}
	}
	for _, w := range f.children {
		if err := f.checkWord(w); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *Flat) checkWord(w int32) error {
	if w >= 0 {
		if int(w) >= len(f.features) {
			return fmt.Errorf("gbdt: flat compile produced out-of-range internal word %d (%d internal nodes)", w, len(f.features))
		}
		return nil
	}
	if int(^w) >= len(f.leaves) {
		return fmt.Errorf("gbdt: flat compile produced out-of-range leaf word %d (%d leaves)", w, len(f.leaves))
	}
	return nil
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// NumTrees returns the number of boosted stages in the compiled model.
func (f *Flat) NumTrees() int { return len(f.roots) }

// RawPredict returns the unsquashed margin for one feature row.
//
//lfo:hotpath
func (f *Flat) RawPredict(row []float64) float64 {
	mustRowDim(len(row), f.dim)
	feats, ths, miss, kids := f.features, f.thresholds, f.missSub, f.children
	s := f.base
	for _, root := range f.roots {
		c := int(root)
		for c >= 0 {
			v := row[feats[c]]
			if math.IsNaN(v) {
				v = miss[c]
			}
			if v <= ths[c] {
				c = int(kids[2*c])
			} else {
				c = int(kids[2*c+1])
			}
		}
		s += f.leaves[^c]
	}
	return s
}

// Predict returns the positive-class probability for one row.
//
//lfo:hotpath
func (f *Flat) Predict(row []float64) float64 {
	return sigmoid(f.RawPredict(row))
}

// walkBlock advances every row of a block through one tree until all
// cursors are leaf words: cur[i] starts at root and ends < 0. All active
// rows take one level step per pass; rows that reach a leaf are dropped
// from the act list with a branch-free compaction (the conditional
// increment compiles to flag arithmetic), so finished rows cost no padded
// passes and no mispredicted "is it done" branches. root must be an
// internal word (callers handle single-leaf trees).
//
//lfo:hotpath
func (f *Flat) walkBlock(block []float64, cur, act []int32, root int32) {
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

// scoreBlock fills out[lo:hi] with positive-class probabilities for rows
// [lo, hi), hi-lo <= matrixBlock. Cursor and active-list arrays live on
// the stack, so the whole batched path allocates nothing.
//
//lfo:hotpath
func (f *Flat) scoreBlock(rows, out []float64, lo, hi int) {
	var cur, act [matrixBlock]int32
	block := rows[lo*f.dim : hi*f.dim]
	o := out[lo:hi]
	c := cur[:hi-lo]
	a := act[:hi-lo]
	for i := range o {
		o[i] = f.base
	}
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
	for i := range o {
		o[i] = sigmoid(o[i])
	}
}

// matrixArgs carries one batched call's bindings through par.RangesArg, so
// the hot entry points hand par a static package function instead of
// allocating a capturing closure per call.
type matrixArgs struct {
	f         *Flat
	rows, out []float64
}

func flatScoreRange(a matrixArgs, lo, hi int) {
	for b := lo; b < hi; b += matrixBlock {
		e := b + matrixBlock
		if e > hi {
			e = hi
		}
		a.f.scoreBlock(a.rows, a.out, b, e)
	}
}

// PredictMatrix fills out[i] with the positive-class probability of row i
// of the flat row-major matrix rows, scoring matrixBlock-row blocks
// level-synchronously per tree across up to workers goroutines (0 = all
// cores, 1 = inline). Rows are scored independently and each row's
// accumulation order matches RawPredict, so the output is byte-identical
// to per-row scoring for any worker count.
//
//lfo:hotpath
func (f *Flat) PredictMatrix(rows, out []float64, workers int) {
	mustMatrixDims(len(rows), len(out), f.dim)
	par.RangesArg(len(out), workers, matrixBlock, matrixArgs{f, rows, out}, flatScoreRange)
}

// mustRowDim validates a row's width outside the annotated kernels; the
// fmt interpolation below runs only on the failing (panic) path, keeping
// allocation out of the measured hot loop.
func mustRowDim(n, dim int) {
	if n != dim {
		panic(fmt.Sprintf("gbdt: row dim %d != model dim %d", n, dim))
	}
}

// mustMatrixDims validates a batched call's matrix shape outside the
// annotated kernels, for the same reason as mustRowDim.
func mustMatrixDims(rowsLen, n, dim int) {
	if rowsLen != n*dim {
		panic(fmt.Sprintf("gbdt: rows length %d != %d rows × dim %d", rowsLen, n, dim))
	}
}
