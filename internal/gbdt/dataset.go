package gbdt

import (
	"fmt"
	"math"
	"sort"
)

// Dataset is a set of feature rows with binary labels. Its rows are a
// dense row-major matrix (NewDataset, DatasetFromMatrix) or a RowStore's
// rows without their missing tails (DatasetFromRows); the trainer reads
// only the stored cells of either, so the two give the same model.
type Dataset struct {
	dim  int
	rows rowSet
	y    []float64 // labels in {0, 1}
}

// NewDataset returns an empty dataset with the given feature dimension.
func NewDataset(dim int) *Dataset {
	if dim <= 0 {
		panic("gbdt: dataset dimension must be positive")
	}
	return &Dataset{dim: dim, rows: rowSet{chunks: [][]float64{nil}}}
}

// Dim returns the feature dimension.
func (d *Dataset) Dim() int { return d.dim }

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.y) }

// Append adds a row. The label must be 0 or 1. The row is copied.
func (d *Dataset) Append(row []float64, label float64) {
	if len(row) != d.dim {
		panic(fmt.Sprintf("gbdt: row dim %d != dataset dim %d", len(row), d.dim))
	}
	mustLabels(label)
	d.rows.chunks[0] = append(d.rows.chunks[0], row...)
	d.y = append(d.y, label)
}

// DatasetFromMatrix wraps an existing flat row-major matrix (len(y) rows,
// dim wide) as a dataset without copying. Labels must be 0 or 1. The
// caller must not mutate x or y while the dataset is in use.
func DatasetFromMatrix(dim int, x []float64, y []float64) *Dataset {
	if dim <= 0 {
		panic("gbdt: dataset dimension must be positive")
	}
	if len(x) != len(y)*dim {
		panic(fmt.Sprintf("gbdt: matrix length %d != %d rows × dim %d", len(x), len(y), dim))
	}
	mustLabels(y...)
	return &Dataset{dim: dim, rows: rowSet{chunks: [][]float64{x}}, y: y}
}

// DatasetFromRows wraps the rows of a store (len(y) of them) as a dataset
// without copying. Labels must be 0 or 1. The caller must not write to the
// store, or mutate y, while the dataset is in use.
func DatasetFromRows(s *RowStore, y []float64) *Dataset {
	if s.Len() != len(y) {
		panic(fmt.Sprintf("gbdt: %d stored rows != %d labels", s.Len(), len(y)))
	}
	mustLabels(y...)
	return &Dataset{dim: s.dim, rows: s.rowSet, y: y}
}

func mustLabels(y ...float64) {
	for _, label := range y {
		//lfolint:ignore float-equal labels are exact 0/1 sentinels assigned from constants, never computed
		if label != 0 && label != 1 {
			panic(fmt.Sprintf("gbdt: label must be 0 or 1, got %g", label))
		}
	}
}

// Row returns row i's stored cells (not a copy; do not modify): all dim of
// them for a dense dataset, a prefix for a RowStore's row, whose cells past
// it are missing.
func (d *Dataset) Row(i int) []float64 { return d.rows.row(i, d.dim) }

// Label returns the label of row i.
func (d *Dataset) Label(i int) float64 { return d.y[i] }

// missingBin is the reserved histogram bin for NaN values.
const missingBin = 0

// binner maps raw feature values to histogram bins. Bin 0 is reserved for
// missing (NaN); bins 1..len(edges[f]) cover values, where bin b holds
// values v with edges[f][b-2] < v <= edges[f][b-1] (edges ascending, last
// edge +Inf).
type binner struct {
	edges [][]float64
}

// buildBinner computes per-feature quantile bin edges from the dataset's
// stored cells.
func buildBinner(d *Dataset) *binner {
	b := &binner{edges: make([][]float64, d.dim)}
	vals := make([]float64, 0, d.Len())
	for f := 0; f < d.dim; f++ {
		vals = vals[:0]
		for i := 0; i < d.Len(); i++ {
			if row := d.Row(i); f < len(row) && !math.IsNaN(row[f]) {
				vals = append(vals, row[f])
			}
		}
		b.edges[f] = quantileEdges(vals, maxBins)
	}
	return b
}

// quantileEdges returns ascending bin upper bounds for values, at most
// bins of them, ending in +Inf.
func quantileEdges(vals []float64, bins int) []float64 {
	if len(vals) == 0 {
		return []float64{math.Inf(1)}
	}
	sort.Float64s(vals)
	// One bin per distinct value while they fit; upper bound is the value
	// itself.
	edges := make([]float64, 0, bins)
	fits := true
	for i, v := range vals {
		//lfolint:ignore float-equal dedup of sorted values is exact by design: identical bits share a bin
		if i > 0 && v == vals[i-1] {
			continue
		}
		if len(edges) == bins {
			fits = false
			break
		}
		edges = append(edges, v)
	}
	if !fits {
		// Quantile cut points over the full (non-distinct) value list so
		// heavy values get their own bins.
		edges = edges[:0]
		prev := math.Inf(-1)
		for b := 1; b <= bins; b++ {
			idx := b*len(vals)/bins - 1
			v := vals[idx]
			//lfolint:ignore float-equal cut-point dedup is exact by design: only bit-identical edges collapse
			if v != prev {
				edges = append(edges, v)
				prev = v
			}
		}
	}
	// Terminal catch-all: the top bin absorbs values beyond the training
	// range. edges is non-empty because vals is non-empty.
	edges[len(edges)-1] = math.Inf(1)
	return edges
}

// bin maps a value to its bin for feature f.
func (b *binner) bin(f int, v float64) uint8 {
	if math.IsNaN(v) {
		return missingBin
	}
	e := b.edges[f]
	// Binary search: first edge >= v.
	lo, hi := 0, len(e)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if e[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint8(lo + 1)
}

// numBins returns the bin count (including the missing bin) for feature f.
func (b *binner) numBins(f int) int { return len(b.edges[f]) + 1 }

// threshold returns the raw-value upper bound of bin index (1-based data
// bin) for feature f, used as the tree's split threshold.
func (b *binner) threshold(f int, bin int) float64 {
	return b.edges[f][bin-1]
}

// binRows returns the binned copy of the dataset, row-major and without
// missing tails: row i's bins are bins[start[i]:start[i+1]], one byte per
// cell up to its last present one, and every feature past them is in
// missingBin. The trainer's row loops — histogram build, partition,
// out-of-sample walk — each touch one row's bytes together.
func binRows(d *Dataset, b *binner) (bins []uint8, start []int32) {
	n := d.Len()
	start = make([]int32, n+1)
	for i := 0; i < n; i++ {
		row := d.Row(i)
		w := len(row)
		for w > 0 && math.IsNaN(row[w-1]) {
			w--
		}
		if int(start[i])+w > math.MaxInt32 {
			panic("gbdt: dataset has more than 2^31 present cells")
		}
		start[i+1] = start[i] + int32(w)
	}
	bins = make([]uint8, start[n])
	for i := 0; i < n; i++ {
		out := bins[start[i]:start[i+1]]
		for f, v := range d.Row(i)[:len(out)] {
			out[f] = b.bin(f, v)
		}
	}
	return bins, start
}
