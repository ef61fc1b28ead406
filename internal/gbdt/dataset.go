package gbdt

import (
	"fmt"
	"math"
	"sort"
)

// Dataset is a row-major feature matrix with binary labels.
type Dataset struct {
	dim int
	x   []float64 // n*dim, row-major
	y   []float64 // labels in {0, 1}
}

// NewDataset returns an empty dataset with the given feature dimension.
func NewDataset(dim int) *Dataset {
	if dim <= 0 {
		panic("gbdt: dataset dimension must be positive")
	}
	return &Dataset{dim: dim}
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
	//lfolint:ignore float-equal labels are exact 0/1 sentinels assigned from constants, never computed
	if label != 0 && label != 1 {
		panic(fmt.Sprintf("gbdt: label must be 0 or 1, got %g", label))
	}
	d.x = append(d.x, row...)
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
	for _, label := range y {
		//lfolint:ignore float-equal labels are exact 0/1 sentinels assigned from constants, never computed
		if label != 0 && label != 1 {
			panic(fmt.Sprintf("gbdt: label must be 0 or 1, got %g", label))
		}
	}
	return &Dataset{dim: dim, x: x, y: y}
}

// Row returns row i (not a copy; do not modify).
func (d *Dataset) Row(i int) []float64 {
	return d.x[i*d.dim : (i+1)*d.dim]
}

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

// buildBinner computes per-feature quantile bin edges from the dataset.
func buildBinner(d *Dataset) *binner {
	b := &binner{edges: make([][]float64, d.dim)}
	vals := make([]float64, 0, d.Len())
	for f := 0; f < d.dim; f++ {
		vals = vals[:0]
		for i := 0; i < d.Len(); i++ {
			v := d.x[i*d.dim+f]
			if !math.IsNaN(v) {
				vals = append(vals, v)
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

// binRows returns the row-major binned copy of the dataset: one byte per
// cell, laid out like d.x (cell (r, f) at r*dim+f) and written in the order
// d.x is read. The trainer's row loops — histogram build, partition,
// out-of-sample walk — each touch one row's dim bytes together.
func binRows(d *Dataset, b *binner) []uint8 {
	bins := make([]uint8, len(d.x))
	dim := d.dim
	for base := 0; base < len(d.x); base += dim {
		for f, v := range d.x[base : base+dim] {
			bins[base+f] = b.bin(f, v)
		}
	}
	return bins
}
