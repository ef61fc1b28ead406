package gbdt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rowsCase is one dataset held both ways: a dense row-major matrix and a
// RowStore of the same rows without their missing tails.
type rowsCase struct {
	dim   int
	dense []float64
	store *RowStore
	y     []float64
}

// randomRows' shape bits.
const (
	rowsFull      = 1 << 0 // every row present to its last cell
	rowsEmpty     = 1 << 1 // a tenth of the rows have no present cell
	rowsInterior  = 1 << 2 // a tenth of the prefix cells are missing
	rowsPadded    = 1 << 3 // some rows are stored with missing cells after their last present one
	rowsFewValues = 1 << 4 // values from a handful, so bins hold ties
)

// randomRows draws n rows dim cells wide, each a present prefix followed
// by NaN, and writes each into the store the way the window record does:
// the whole row into Next's cells, then Commit of its width. Labels follow
// the first cell and the width, with noise, so trees split on both.
func randomRows(rng *rand.Rand, n, dim int, shape uint8) rowsCase {
	c := rowsCase{dim: dim, dense: make([]float64, n*dim), store: NewRowStore(dim), y: make([]float64, n)}
	for i := 0; i < n; i++ {
		row := c.dense[i*dim : (i+1)*dim]
		w := rng.Intn(dim + 1)
		switch {
		case shape&rowsFull != 0:
			w = dim
		case shape&rowsEmpty != 0 && rng.Intn(10) == 0:
			w = 0
		}
		for f := range row {
			switch {
			case f >= w, shape&rowsInterior != 0 && rng.Intn(10) == 0:
				row[f] = math.NaN()
			case shape&rowsFewValues != 0:
				row[f] = float64(rng.Intn(6))
			default:
				row[f] = math.Round(rng.NormFloat64()*1000) / 8
			}
		}
		stored := w
		if shape&rowsPadded != 0 && rng.Intn(4) == 0 {
			stored += rng.Intn(dim - w + 1)
		}
		copy(c.store.Next(), row)
		c.store.Commit(stored)
		score := float64(w)/float64(dim) - 0.5
		if w > 0 && !math.IsNaN(row[0]) && row[0] > 0 {
			score++
		}
		if score+rng.NormFloat64() > 0.5 {
			c.y[i] = 1
		}
	}
	return c
}

// trainBoth trains on the case stored both ways and fails unless the two
// models save to the same bytes.
func (c rowsCase) trainBoth(t *testing.T, p Params) {
	t.Helper()
	dense, err := Train(DatasetFromMatrix(c.dim, c.dense, c.y), p)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Train(DatasetFromRows(c.store, c.y), p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, dense), modelBytes(t, rows)) {
		t.Fatalf("%+v: the model trained from the stored rows differs from the dense matrix's", p)
	}
}

// TestRowsTrainLikeMatrix: a dataset whose rows are stored without their
// missing tails trains the model its dense matrix trains, byte for byte —
// with missing tails, interior missing cells, empty rows, rows stored with
// part of their tail, rows filling a chunk to its last cell, at one and
// four workers.
func TestRowsTrainLikeMatrix(t *testing.T) {
	cases := []struct {
		name     string
		n, dim   int
		shape    uint8
		minChunk int // chunks the store must span
	}{
		{"window-shaped", 3000, 53, rowsEmpty | rowsInterior | rowsPadded, 5},
		{"full-rows-fill-chunks", 2000, 16, rowsFull, 3},
		{"few-values", 2500, 9, rowsEmpty | rowsFewValues | rowsPadded, 1},
	}
	for i, c := range cases {
		rc := randomRows(rand.New(rand.NewSource(int64(i+1))), c.n, c.dim, c.shape)
		if chunks := len(rc.store.chunks); chunks < c.minChunk {
			t.Fatalf("%s: %d chunks, want at least %d", c.name, chunks, c.minChunk)
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/default/workers=%d", c.name, workers), func(t *testing.T) {
				p := DefaultParams()
				p.NumIterations = 10
				p.Workers = workers
				rc.trainBoth(t, p)
			})
		}
	}
}

// FuzzRowsTrainLikeMatrix is TestRowsTrainLikeMatrix over fuzzed shapes:
// row count, width, the shape bits of randomRows and the worker count.
// Only bit 1 of params is read (one or four workers); bits 2 and 4 once
// chose bagging and a feature fraction, which the trainer no longer has,
// and stay in the signature so that the committed corpus replays as it
// was written.
func FuzzRowsTrainLikeMatrix(f *testing.F) {
	for _, s := range rowsSeeds {
		f.Add(s.seed, s.rows, s.dim, s.shape, s.params)
	}
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, dim, shape, params uint8) {
		n := 1 + int(rows)%1500
		rc := randomRows(rand.New(rand.NewSource(seed)), n, 1+int(dim)%60, shape)
		p := DefaultParams()
		p.NumIterations = 3
		p.Workers = 1 + int(params&1)*3
		rc.trainBoth(t, p)
	})
}

// rowsSeeds is FuzzRowsTrainLikeMatrix's seed corpus, in code and (through
// TestRegenerateFuzzCorpus) under testdata/fuzz: one seed per shape bit, a
// few combined, a single row, rows that fill chunks exactly, and every
// params bit, read or not.
var rowsSeeds = []struct {
	seed               int64
	rows               uint16
	dim, shape, params uint8
}{
	{seed: 1, rows: 800, dim: 53},
	{seed: 2, rows: 1, dim: 5, shape: rowsEmpty},
	{seed: 3, rows: 1200, dim: 16, shape: rowsFull, params: 1},
	{seed: 4, rows: 900, dim: 30, shape: rowsInterior | rowsPadded, params: 2},
	{seed: 5, rows: 1000, dim: 8, shape: rowsFewValues | rowsEmpty, params: 4},
	{seed: 6, rows: 1499, dim: 59, shape: rowsEmpty | rowsInterior | rowsPadded | rowsFewValues, params: 7},
	{seed: 7, rows: 300, dim: 1, shape: rowsEmpty},
}

// TestRowStore pins the store's layout: a row's stored cells are the
// committed prefix of what was written, Expand restores the missing tail,
// no row straddles two chunks, Reset keeps every chunk for the rows that
// follow, and a store that needs no more chunks than it has allocates none.
func TestRowStore(t *testing.T) {
	const dim = 53
	rng := rand.New(rand.NewSource(3))
	s := NewRowStore(dim)
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("new store: %d rows, %d bytes", s.Len(), s.Bytes())
	}
	var want [][]float64
	fill := func(n int) {
		want = want[:0]
		for i := 0; i < n; i++ {
			row := s.Next()
			w := rng.Intn(dim + 1)
			for f := range row {
				row[f] = math.NaN()
				if f < w {
					row[f] = float64(i*dim + f)
				}
			}
			s.Commit(w)
			want = append(want, append([]float64(nil), row...))
		}
	}
	check := func(round int) {
		t.Helper()
		if s.Len() != len(want) {
			t.Fatalf("round %d: %d rows, want %d", round, s.Len(), len(want))
		}
		dst := make([]float64, dim)
		for i, w := range want {
			r := s.refs[i]
			if int(r.start)+int(r.width) > s.cells {
				t.Fatalf("round %d: row %d straddles chunk %d's end", round, i, r.chunk)
			}
			s.Expand(i, dst)
			for f := range w {
				if math.Float64bits(dst[f]) != math.Float64bits(w[f]) {
					t.Fatalf("round %d: row %d cell %d = %v, written %v", round, i, f, dst[f], w[f])
				}
			}
		}
	}
	fill(3000)
	check(0)
	chunks, bytes0 := append([][]float64(nil), s.chunks...), s.Bytes()
	if len(chunks) < 5 {
		t.Fatalf("3000 rows in %d chunks: the test no longer crosses chunk boundaries", len(chunks))
	}
	if want := int64(len(chunks))*rowChunkCells*8 + int64(cap(s.refs))*8; bytes0 != want {
		t.Errorf("Bytes = %d, want %d", bytes0, want)
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Reset left %d rows", s.Len())
	}
	fill(1500)
	check(1)
	if s.Bytes() != bytes0 || &s.chunks[0][0] != &chunks[0][0] {
		t.Errorf("a smaller record after Reset grew the store or moved its chunks: %d bytes, was %d", s.Bytes(), bytes0)
	}
	refill := func() {
		s.Reset()
		for i := 0; i < 1000; i++ { // at most 53 000 cells, the 3000 rows' ≈ 80 000
			copy(s.Next(), want[i%len(want)])
			s.Commit(dim)
		}
	}
	if allocs := testing.AllocsPerRun(5, refill); allocs != 0 {
		t.Errorf("refilling a reset store allocated %v times per fill", allocs)
	}
	for _, bad := range []func(){
		func() { NewRowStore(0) },
		func() { NewRowStore(1 << 16) },
		func() { NewRowStore(dim).Commit(0) }, // no reservation
		func() { s.Next(); s.Commit(dim + 1) },
		func() { s.Expand(0, make([]float64, dim-1)) },
		func() { DatasetFromRows(s, make([]float64, s.Len()+1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("misuse did not panic")
				}
			}()
			bad()
		}()
	}
}
