package gbdt

import (
	"fmt"
	"math"
	"math/bits"

	"lfo/internal/par"
)

// This file is the inference kernel: one QuickScorer-style bitvector scorer
// (Lucchese et al., SIGIR 2015) that every prediction goes through — single
// rows, matrices, the learned evictor's victim pick, the server's batches.
//
// A tree walk asks "which child?" at every level, and on the rows a window
// really holds — (size, cost, free, k gaps, NaN…) — those ≈180 branches per
// row depend on the data and mispredict. The scorer asks the opposite
// question once per split feature: which tests are false for this value?
//
//   - The leaves of a tree are numbered left to right and a row keeps one bit
//     per leaf, all set: "still reachable". A split whose test v <= threshold
//     is false sends the row right, so the leaves under its left child are
//     out: the split's entry carries the mask that clears exactly those bits.
//     After every false test has been applied, the lowest bit still set is
//     the leaf the walk would have ended in. A tree is one word: Compile
//     refuses a tree of more than 64 leaves, and Params.Validate caps
//     NumLeaves there.
//   - Compile sorts the entries of each split feature by threshold, so the
//     false tests of a value v are a prefix — the entries with threshold < v —
//     and the scan stops at the first threshold it does not exceed. That is
//     one well-predicted loop per feature instead of a branch per node.
//   - A feature that many splits test (object size: a quarter of a window
//     model's) is not scanned from its first entry: every step entries the
//     block keeps a checkpoint, the vector those entries leave, and the scan
//     starts from the last checkpoint whose entries the value exceeds.
//   - NaN takes each split's learned default direction: a NaN value applies
//     the feature's entries whose split sends NaN right. Window rows are NaN
//     in a suffix of the features, so a block also keeps the vector that NaN
//     in its last 0, 1, 2, … split features leaves; the scorer scans back
//     over the row's NaN suffix and starts from that row of the table without
//     touching those features' entries at all. A first-seen object costs a
//     copy and two short scans.
//
// Trees are grouped into blocks of at most blockTrees trees, one bitvector
// word each, so the vector lives on the scorer's stack whatever the
// ensemble size; a window model is one block. Leaf values are summed
// base + tree 0 + tree 1 + … exactly like the pointer walk (Tree.predict),
// so every score is bit-identical to it.
//
// The vector the scans leave also says how long a score lasts. A feature
// that only grows — an object's age — can only turn true tests false, and
// of those only the ones that would clear a tree's lowest set bit move a
// leaf: PredictStable reports, with the score, the nearest such threshold
// per feature asked for (horizon), and a caller keeps the score until the
// feature passes it instead of scoring again.

// blockTrees is the most trees a block holds, and so the words of the
// bitvector the scorer keeps on its stack.
const blockTrees = 64

// maxLeaves is the most leaves a tree may have: one bitvector word.
const maxLeaves = 64

// matrixChunk is the fewest rows PredictMatrix hands one goroutine.
const matrixChunk = 64

// minStep is the fewest entries between two checkpoints of a feature. A
// checkpoint costs the scorer one pass over the bitvector, so it pays when it
// stands for at least about that many entries; the floor keeps the few-word
// vectors of small models from checkpointing every other entry.
const minStep = 16

// nanRight marks, in entry.feat, a split whose NaN values go right.
const nanRight = 1 << 31

// Flat is a Model compiled for scoring. It is immutable after Compile and
// safe for concurrent use.
type Flat struct {
	dim    int
	base   float64
	blocks []block

	ents   []entry   // per block, per split feature, ascending threshold
	trees  []uint32  // per tree in model order, its first leaf in leaves
	leaves []float64 // per tree, left to right
}

// entry is one split seen from the row's side: when the test is false
// (threshold < value, or NaN at a nanRight split) the bits that mask lacks
// leave word ref of the block's bitvector, its tree's.
type entry struct {
	thr  float64
	mask uint64
	ref  uint32
	feat uint32 // split feature, with nanRight
}

// block is a run of consecutive trees that share one bitvector, a word
// per tree.
type block struct {
	step  int         // entries per checkpoint: max(len(trees), minStep)
	feats []featRange // split features, ascending
	trees []uint32    // of Flat.trees
	// checks holds the features' checkpoints: a feature with many splits is
	// not scanned from its first entry but from the last checkpoint whose
	// entries the value exceeds, one AND over the vector standing for them.
	checks []uint64
	// suffix holds rows of len(trees) words: row n is the bitvector after
	// NaN in the last n split features, row 0 is all ones. tail lists the
	// features the table reaches, last first; NaN in an earlier one goes
	// through the feature's entries.
	suffix []uint64
	tail   []int32
}

// featRange locates one split feature's entries in Flat.ents and its
// checkpoints in the block's checks: (hi-lo)/step bitvectors, the c-th the
// one the feature's first (c+1)*step entries leave.
type featRange struct {
	feature int32
	lo, hi  int32
	check   int32
}

// compileFlat validates a model's shape and builds its scorer. It is the
// single validation point for hostile models: Load and Compile both funnel
// here. Features must lie within dim and children strictly after their
// parent, each node under at most one parent (the shape the trainer emits,
// and what makes "the leaves under the left child" a range of bits), and no
// tree may reach more than maxLeaves leaves, its bitvector word's bits;
// thresholds must be finite, because the sorted scan compares them against
// ±Inf values, and so must base and leaf values, so a hostile stream cannot
// launder NaN into every score. A model with zero trees is valid (it
// predicts sigmoid(base)), matching the warm-start models core accepts.
//
// The cost is linear in the model's node count — each tree is read while it
// is cache-hot, slices are sized once, the entries take one radix sort — and
// nothing is sized by dim: a hostile stream may claim any dim with no trees
// to back it.
func compileFlat(dim int, base float64, trees []Tree) (*Flat, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("gbdt: model has invalid dim %d", dim)
	}
	if !isFinite(base) {
		return nil, fmt.Errorf("gbdt: model base score %v is not finite", base)
	}
	// A tree of n nodes that all hang off its root has (n-1)/2 splits and
	// (n+1)/2 leaves; nodes no parent leads to only make that an upper bound.
	splits, leaves, maxNodes := 0, 0, 0
	for ti := range trees {
		n := len(trees[ti].Nodes)
		if n == 0 {
			return nil, fmt.Errorf("gbdt: model tree %d has no nodes", ti)
		}
		splits, leaves, maxNodes = splits+(n-1)/2, leaves+(n+1)/2, max(maxNodes, n)
	}
	f := &Flat{
		dim:    dim,
		base:   base,
		ents:   make([]entry, 0, splits),
		trees:  make([]uint32, 0, len(trees)),
		leaves: make([]float64, 0, leaves),
	}
	// pos[i] is node i's first leaf bit within its tree (-1: no parent leads
	// to it), cnt[i] the number of leaves under it.
	work := make([]int32, 2*maxNodes)
	pos, cnt := work[:maxNodes], work[maxNodes:]
	tree0, ent0 := 0, 0 // the block being filled
	for ti := range trees {
		nodes := trees[ti].Nodes
		for i := range nodes {
			pos[i] = -1
		}
		pos[0] = 0
		// Children come after their parent, so by the time the loop reaches
		// a node every possible parent has already claimed it or not.
		for i := range nodes {
			n := &nodes[i]
			if n.Feature < 0 {
				if !isFinite(n.Value) {
					return nil, fmt.Errorf("gbdt: model tree %d leaf %d has non-finite value %v", ti, i, n.Value)
				}
				continue
			}
			if int(n.Feature) >= dim {
				return nil, fmt.Errorf("gbdt: model tree %d node %d splits feature %d, dim %d", ti, i, n.Feature, dim)
			}
			if !isFinite(n.Threshold) {
				return nil, fmt.Errorf("gbdt: model tree %d node %d has non-finite threshold %v", ti, i, n.Threshold)
			}
			if n.Left <= int32(i) || int(n.Left) >= len(nodes) ||
				n.Right <= int32(i) || int(n.Right) >= len(nodes) {
				return nil, fmt.Errorf("gbdt: model tree %d node %d has out-of-order children (%d, %d)", ti, i, n.Left, n.Right)
			}
			if pos[i] < 0 {
				continue
			}
			if pos[n.Left] >= 0 || n.Left == n.Right || pos[n.Right] >= 0 {
				return nil, fmt.Errorf("gbdt: model tree %d node %d has a child that another node also has", ti, i)
			}
			pos[n.Left], pos[n.Right] = 0, 0
		}
		for i := len(nodes) - 1; i >= 0; i-- {
			switch n := &nodes[i]; {
			case pos[i] < 0:
			case n.Feature < 0:
				cnt[i] = 1
			default:
				cnt[i] = cnt[n.Left] + cnt[n.Right]
			}
		}
		if cnt[0] > maxLeaves {
			return nil, fmt.Errorf("gbdt: model tree %d has %d leaves, more than %d", ti, cnt[0], maxLeaves)
		}
		if len(f.trees)-tree0 == blockTrees {
			f.finishBlock(tree0, ent0)
			tree0, ent0 = len(f.trees), len(f.ents)
		}
		word, leaf := uint32(len(f.trees)-tree0), len(f.leaves)
		f.trees = append(f.trees, uint32(leaf))
		f.leaves = f.leaves[:leaf+int(cnt[0])]
		for i := range nodes {
			n := &nodes[i]
			if pos[i] < 0 {
				continue
			}
			if n.Feature < 0 {
				f.leaves[leaf+int(pos[i])] = n.Value
				continue
			}
			// False test: leaves [a, b), the left child's, are out.
			a, b := uint32(pos[i]), uint32(pos[i]+cnt[n.Left])
			pos[n.Left], pos[n.Right] = int32(a), int32(b)
			e := entry{thr: n.Threshold, mask: clearBits(a, b), ref: word, feat: uint32(n.Feature)}
			if !n.MissingLeft {
				e.feat |= nanRight
			}
			f.ents = append(f.ents, e)
		}
	}
	if len(f.trees) > tree0 {
		f.finishBlock(tree0, ent0)
	}
	return f, nil
}

// clearBits returns a word with bits [lo, hi) clear, 0 <= lo < hi <= 64.
func clearBits(lo, hi uint32) uint64 {
	return ^(^uint64(0) >> (64 - (hi - lo)) << lo)
}

// sortKey returns the entry's place in the order of the scan: split feature
// first, then threshold, its bits flipped so that they order as unsigned the
// way the floats order.
func (e *entry) sortKey() (feat uint32, thr uint64) {
	k := math.Float64bits(e.thr)
	return e.feat &^ nanRight, k ^ (uint64(int64(k)>>63) | 1<<63)
}

// keyByte returns byte d of the twelve a sort key has, least significant
// first.
func keyByte(feat uint32, thr uint64, d int) uint8 {
	if d < 8 {
		return uint8(thr >> (8 * d))
	}
	return uint8(feat >> (8 * (d - 8)))
}

// sortEntries orders ents for the scan: a byte-wise radix sort, least
// significant byte first, over the bytes in which the keys differ at all
// (half of them: features fit one byte, and thresholds learned from sizes
// and gaps are short in binary). A comparison sort of a window model's 900
// entries mispredicts its way to three times the cost of the rest of
// Compile; this is linear whatever a hostile stream holds.
func sortEntries(ents []entry) {
	if len(ents) == 0 {
		return
	}
	feat0, thr0 := ents[0].sortKey()
	featDiff, thrDiff := uint32(0), uint64(0)
	for i := range ents {
		feat, thr := ents[i].sortKey()
		featDiff, thrDiff = featDiff|(feat^feat0), thrDiff|(thr^thr0)
	}
	src, dst := ents, make([]entry, len(ents))
	for d := 0; d < 12; d++ {
		if keyByte(featDiff, thrDiff, d) == 0 {
			continue
		}
		var at [256]int32
		for i := range src {
			feat, thr := src[i].sortKey()
			at[keyByte(feat, thr, d)]++
		}
		sum := int32(0)
		for b, n := range at {
			at[b], sum = sum, sum+n
		}
		for i := range src {
			feat, thr := src[i].sortKey()
			b := keyByte(feat, thr, d)
			dst[at[b]] = src[i]
			at[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ents[0] {
		copy(ents, src)
	}
}

// finishBlock closes the block whose trees and entries begin at tree0 and
// ent0: it orders the entries for the scan, indexes them by split feature
// and fills the suffix table.
func (f *Flat) finishBlock(tree0, ent0 int) {
	words := len(f.trees) - tree0
	ents := f.ents[ent0:]
	sortEntries(ents)
	m := 0
	for i := range ents {
		if i == 0 || ents[i].feat&^nanRight != ents[i-1].feat&^nanRight {
			m++
		}
	}
	b := block{feats: make([]featRange, 0, m), trees: f.trees[tree0:len(f.trees):len(f.trees)]}
	for i := range ents {
		ft := int32(ents[i].feat &^ nanRight)
		if i == 0 || ft != b.feats[len(b.feats)-1].feature {
			b.feats = append(b.feats, featRange{feature: ft, lo: int32(ent0 + i)})
		}
		b.feats[len(b.feats)-1].hi = int32(ent0 + i + 1)
	}
	// A checkpoint is words words per step >= words entries, so all of them
	// take no more words than the block has entries.
	b.step = max(words, minStep)
	checks := 0
	for i := range b.feats {
		ft := &b.feats[i]
		ft.check = int32(checks * words)
		checks += int(ft.hi-ft.lo) / b.step
	}
	b.checks = make([]uint64, checks*words)
	for _, ft := range b.feats {
		for c := 0; c < int(ft.hi-ft.lo)/b.step; c++ {
			v := b.checks[int(ft.check)+c*words:][:words]
			if c == 0 {
				fillOnes(v)
			} else {
				copy(v, b.checks[int(ft.check)+(c-1)*words:])
			}
			for _, e := range f.ents[int(ft.lo)+c*b.step : int(ft.lo)+(c+1)*b.step] {
				v[e.ref] &= e.mask
			}
		}
	}
	// The table may take two words per node of the block's trees and no
	// more, so features × trees cannot be made to explode; row 0 alone
	// always fits, being a sixty-fourth of the leaves.
	budget := 2 * (2*len(ents) + len(b.trees))
	b.tail = make([]int32, min(m, max(budget/words, 1)-1))
	b.suffix = make([]uint64, (len(b.tail)+1)*words)
	fillOnes(b.suffix[:words])
	for n := range b.tail {
		ft := b.feats[m-1-n]
		b.tail[n] = ft.feature
		row := b.suffix[(n+1)*words : (n+2)*words]
		copy(row, b.suffix[n*words:])
		f.applyNaN(row, ft)
	}
	f.blocks = append(f.blocks, b)
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

func fillOnes(v []uint64) {
	for i := range v {
		v[i] = ^uint64(0)
	}
}

// applyNaN takes from v the leaves that NaN in feature ft rules out: those
// of its nanRight splits.
//
//lfo:hotpath
func (f *Flat) applyNaN(v []uint64, ft featRange) {
	for i := ft.lo; i < ft.hi; i++ {
		if e := &f.ents[i]; e.feat&nanRight != 0 {
			v[e.ref] &= e.mask
		}
	}
}

// skip returns how many of the checkpoints of a feature's entries es, one
// every step of them, value x is past: the entries before the c-th all have
// a threshold x exceeds.
//
//lfo:hotpath
func skip(es []entry, step int, x float64) int {
	c := 0
	for (c+1)*step <= len(es) && es[(c+1)*step-1].thr < x {
		c++
	}
	return c
}

// scan takes from v the leaves that value x of feature ft rules out: those
// of the feature's entries, ascending, whose threshold x exceeds. It is the
// scorer's inner loop, kept a function of its own so that the loop's few
// values stay in registers.
//
//lfo:hotpath
func (f *Flat) scan(v []uint64, b *block, ft featRange, x float64) {
	es := f.ents[ft.lo:ft.hi]
	if c := skip(es, b.step, x); c > 0 {
		check := b.checks[int(ft.check)+(c-1)*len(v):][:len(v)]
		for i := range v {
			v[i] &= check[i]
		}
		es = es[c*b.step:]
	}
	for i := range es {
		e := &es[i]
		if !(e.thr < x) {
			return
		}
		v[e.ref] &= e.mask
	}
}

// scoreBlock adds to s the leaves row reaches in the trees of block b and
// leaves in bv[:len(b.trees)] the bitvector that says so; bv has
// blockTrees words. A row's unsquashed margin is the base
// score taken through every block in turn — a loop its three callers each
// write out, so that a prediction is no deeper in calls than the scan needs.
//
//lfo:hotpath
func (f *Flat) scoreBlock(b *block, row []float64, bv []uint64, s float64) float64 {
	leaves := f.leaves
	v := bv[:len(b.trees)]
	feats := b.feats
	// The row's NaN suffix, as far as the table goes.
	n := 0
	for _, ft := range b.tail {
		if !math.IsNaN(row[ft]) {
			break
		}
		n++
	}
	copy(v, b.suffix[n*len(v):])
	for _, ft := range feats[:len(feats)-n] {
		x := row[ft.feature]
		if math.IsNaN(x) {
			f.applyNaN(v, ft)
			continue
		}
		f.scan(v, b, ft, x)
	}
	for w, leaf := range b.trees {
		s += leaves[leaf+uint32(bits.TrailingZeros64(v[w]))]
	}
	return s
}

// horizon lowers limits[k] to the stability horizon of feature ask[k] in
// block b, whose bitvector v the scans of row have just left: the largest
// value the feature may grow to with every tree of the block still ending in
// the same leaf.
//
// After the scans a tree's exit leaf is the lowest bit set in its word. A
// value that grows can only turn tests v <= threshold from true to false,
// and a test turned false clears the leaves under its left child; that moves
// the tree's lowest set bit only if the exit leaf is one of them, i.e. the
// test lies on the row's own root-to-leaf path and the row went left there.
// The feature's still-true tests are the entries from the first whose
// threshold the value does not exceed, ascending, so the first of them that
// would clear its tree's exit leaf is the nearest threshold on any path:
// for every value in [x, that threshold] the trees exit where they do now.
// The entries skipped on the way clear only leaves that are not exits, so
// the horizons of several features hold jointly: move all of them inside
// their intervals at once and no exit leaf moves, hence not one bit of the
// sum. A NaN value takes default directions instead of tests and has no
// horizon; its limit stays NaN.
//
//lfo:hotpath
func (f *Flat) horizon(b *block, v []uint64, row []float64, ask []int, limits []float64) {
	for k, feature := range ask {
		x := row[feature]
		// The block's split features are ascending: find this one.
		lo, hi := 0, len(b.feats)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); int(b.feats[mid].feature) < feature {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(b.feats) || int(b.feats[lo].feature) != feature || math.IsNaN(x) {
			continue
		}
		es := f.ents[b.feats[lo].lo:b.feats[lo].hi]
		i := skip(es, b.step, x) * b.step
		for i < len(es) && es[i].thr < x {
			i++
		}
		for limit := limits[k]; i < len(es) && es[i].thr < limit; i++ {
			// Would e, its test false, clear the exit leaf of its tree?
			e := &es[i]
			if x := v[e.ref]; x&-x&^e.mask != 0 {
				limits[k] = e.thr
				break
			}
		}
	}
}

// RawPredict returns the unsquashed margin for one feature row.
//
//lfo:hotpath
func (f *Flat) RawPredict(row []float64) float64 {
	mustRowDim(len(row), f.dim)
	var bv [blockTrees]uint64
	s := f.base
	for bi := range f.blocks {
		s = f.scoreBlock(&f.blocks[bi], row, bv[:], s)
	}
	return s
}

// Predict returns the positive-class probability for one row.
//
//lfo:hotpath
func (f *Flat) Predict(row []float64) float64 {
	return sigmoid(f.RawPredict(row))
}

// PredictStable returns Predict(row) and, in limits[k], the stability
// horizon of feature feats[k]: the largest value, at least row[feats[k]],
// that the feature may take with the score staying bit for bit what it is —
// for every row that differs from this one only in the features asked for,
// each anywhere between its value and its limit, all of them at once. The
// limit is the threshold of the nearest test on the row's root-to-leaf paths
// that growth would flip (the value itself when it sits on one), +Inf when
// no such test is left or no tree splits on the feature, and NaN for a NaN
// value, which follows default directions and has no neighbourhood. The
// learned evictor keeps a resident's score until age or idle time crosses
// its limit instead of scoring it again at every pick.
//
//lfo:hotpath
func (f *Flat) PredictStable(row []float64, feats []int, limits []float64) float64 {
	mustRowDim(len(row), f.dim)
	mustStableArgs(feats, len(limits), f.dim)
	for k, feature := range feats {
		limits[k] = math.Inf(1)
		if math.IsNaN(row[feature]) {
			limits[k] = row[feature]
		}
	}
	var bv [blockTrees]uint64
	s := f.base
	for bi := range f.blocks {
		b := &f.blocks[bi]
		s = f.scoreBlock(b, row, bv[:], s)
		f.horizon(b, bv[:len(b.trees)], row, feats, limits)
	}
	return sigmoid(s)
}

// matrixArgs carries one batched call's bindings through par.RangesArg, so
// the hot entry points hand par a static package function instead of
// allocating a capturing closure per call.
type matrixArgs struct {
	f         *Flat
	rows, out []float64
}

// flatScoreRange scores rows [lo, hi) one after another from one stack
// vector.
//
//lfo:hotpath
func flatScoreRange(a matrixArgs, lo, hi int) {
	var bv [blockTrees]uint64
	dim := a.f.dim
	for i := lo; i < hi; i++ {
		row := a.rows[i*dim : (i+1)*dim]
		s := a.f.base
		for bi := range a.f.blocks {
			s = a.f.scoreBlock(&a.f.blocks[bi], row, bv[:], s)
		}
		a.out[i] = sigmoid(s)
	}
}

// PredictMatrix fills out[i] with the positive-class probability of row i
// of the flat row-major matrix rows, across up to workers goroutines (0 =
// all cores, 1 = inline). Every row goes through the same scorer as
// RawPredict, so the output is byte-identical to per-row scoring for any
// worker count.
//
//lfo:hotpath
func (f *Flat) PredictMatrix(rows, out []float64, workers int) {
	mustMatrixDims(len(rows), len(out), f.dim)
	par.RangesArg(len(out), workers, matrixChunk, matrixArgs{f, rows, out}, flatScoreRange)
}

// mustRowDim validates a row's width outside the annotated kernels; the
// fmt interpolation below runs only on the failing (panic) path, keeping
// allocation out of the measured hot loop.
func mustRowDim(n, dim int) {
	if n != dim {
		panic(fmt.Sprintf("gbdt: row dim %d != model dim %d", n, dim))
	}
}

// mustStableArgs validates PredictStable's feature list outside the
// annotated kernels, for the same reason as mustRowDim.
func mustStableArgs(feats []int, limits, dim int) {
	if len(feats) != limits {
		panic(fmt.Sprintf("gbdt: %d features asked for, room for %d limits", len(feats), limits))
	}
	for _, feature := range feats {
		if feature < 0 || feature >= dim {
			panic(fmt.Sprintf("gbdt: feature %d asked for, model dim %d", feature, dim))
		}
	}
}

// mustMatrixDims validates a batched call's matrix shape outside the
// annotated kernels, for the same reason as mustRowDim.
func mustMatrixDims(rowsLen, n, dim int) {
	if rowsLen != n*dim {
		panic(fmt.Sprintf("gbdt: rows length %d != %d rows × dim %d", rowsLen, n, dim))
	}
}
