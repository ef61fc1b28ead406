package gbdt

import (
	"fmt"
	"math"
)

// rowChunkCells is a RowStore chunk's length in cells (64 KiB): a window
// of feature rows takes a chunk per ≈600 rows of a dozen cells, and a
// record of a handful of rows stays one chunk.
const rowChunkCells = 1 << 13

// rowRef locates one row's stored cells: chunk, first cell, cell count.
type rowRef struct {
	chunk        uint32
	start, width uint16
}

// rowSet is where a set of rows' cells lie. Row i is refs[i]'s cells, or,
// with refs nil, the dense row chunks[0][i*dim : (i+1)*dim]. A row's cells
// are a prefix of its dim cells; the ones past it are missing (NaN).
type rowSet struct {
	chunks [][]float64
	refs   []rowRef
}

func (s *rowSet) row(i, dim int) []float64 {
	if s.refs == nil {
		return s.chunks[0][i*dim : (i+1)*dim]
	}
	r := s.refs[i]
	return s.chunks[r.chunk][r.start : int(r.start)+int(r.width)]
}

// RowStore records feature rows without their missing tails: a row keeps
// the cells before its tail, so LFO's row of an object with two gaps
// costs five cells, not 53. Rows are packed into fixed-size chunks,
// a row never straddles two, a chunk is never copied or moved, and Reset
// keeps every chunk for the rows that follow: a window that needs no more
// chunks than an earlier one allocates none.
//
// A row is written once, in place: Next reserves dim cells at the tail of
// the current chunk, the caller writes the whole row there (and may read
// it back, missing tail included, until the next Next), and Commit keeps
// the first width of them.
type RowStore struct {
	dim   int
	cells int // chunk length
	rowSet
	cur  int // chunks in use; the last of them is being filled
	used int // cells used in chunks[cur-1]
}

// NewRowStore returns an empty store for rows dim cells wide.
func NewRowStore(dim int) *RowStore {
	if dim <= 0 || dim > math.MaxUint16 {
		panic(fmt.Sprintf("gbdt: row store dimension %d out of range", dim))
	}
	return &RowStore{dim: dim, cells: max(rowChunkCells, dim)}
}

// Len returns the number of committed rows.
func (s *RowStore) Len() int { return len(s.refs) }

// Next reserves dim cells for the next row and returns them. They stay the
// caller's until the next call to Next; Commit records the row.
//
//lfo:hotpath
func (s *RowStore) Next() []float64 {
	if s.cur == 0 || s.used+s.dim > s.cells {
		if s.cur == len(s.chunks) {
			//lfolint:ignore hotpath-alloc record miss: one chunk per 8 Ki cells past the largest record so far, reused by every record after
			s.chunks = append(s.chunks, make([]float64, s.cells))
		}
		s.cur++
		s.used = 0
	}
	return s.chunks[s.cur-1][s.used : s.used+s.dim]
}

// Commit records the row written into the cells the last Next returned,
// keeping its first width cells: the ones after them must be missing.
func (s *RowStore) Commit(width int) {
	if width < 0 || width > s.dim || s.cur == 0 || s.used+width > s.cells {
		panic(fmt.Sprintf("gbdt: commit of a %d-cell row without a %d-cell reservation", width, s.dim))
	}
	s.refs = append(s.refs, rowRef{chunk: uint32(s.cur - 1), start: uint16(s.used), width: uint16(width)})
	s.used += width
}

// Row returns row i's stored cells (not a copy; do not modify). They are a
// prefix of the row; the cells past them are missing.
func (s *RowStore) Row(i int) []float64 { return s.row(i, s.dim) }

// Expand writes row i in full into dst (length Dim): its stored cells,
// then NaN.
func (s *RowStore) Expand(i int, dst []float64) {
	if len(dst) != s.dim {
		panic(fmt.Sprintf("gbdt: expanding into %d cells, rows are %d wide", len(dst), s.dim))
	}
	n := copy(dst, s.Row(i))
	for j := n; j < len(dst); j++ {
		dst[j] = math.NaN()
	}
}

// Reset empties the store, keeping its chunks and row index for the rows
// recorded next.
func (s *RowStore) Reset() {
	s.refs = s.refs[:0]
	s.cur, s.used = 0, 0
}

// Bytes returns the memory the store retains: its chunks and row index.
func (s *RowStore) Bytes() int64 {
	return int64(len(s.chunks))*int64(s.cells)*8 + int64(cap(s.refs))*8
}
