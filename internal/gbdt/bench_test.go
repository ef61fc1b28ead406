package gbdt

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// benchRows is how many distinct rows the scoring benchmarks cycle through.
// One fixed row is the branch predictor's best case and reported 451 ns for
// a layer that cost 689 ns in the cache; 4096 window-shaped rows are what a
// window holds.
const benchRows = 4096

var windowBench struct {
	once  sync.Once
	model *Model
	rows  []float64 // benchRows rows of the model's dim
}

// windowModel returns a default 30-tree model trained on one window-shaped
// dataset, and benchRows further rows of the same shape (two thirds
// first-seen objects, the rest with 1 to 50 gaps and NaN behind them).
func windowModel(tb testing.TB) (*Model, []float64) {
	windowBench.once.Do(func() {
		p := DefaultParams()
		p.Workers = 1
		m, err := Train(windowDataset(10000, 1), p)
		if err != nil {
			tb.Fatal(err)
		}
		windowBench.model, windowBench.rows = m, windowDataset(benchRows, 2).matrix()
	})
	return windowBench.model, windowBench.rows
}

// BenchmarkPredict is the per-row serving hot path (Model.Predict over the
// compiled scorer); it is pinned to 0 allocs/op by
// testdata/alloc_budgets.txt (scripts/check.sh) and enforced statically by
// the //lfo:hotpath annotation on Predict.
func BenchmarkPredict(b *testing.B) {
	m, rows := windowModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		r := i % benchRows * m.Dim
		sink += m.Predict(rows[r : r+m.Dim])
	}
	if sink == -1 {
		b.Fatal("impossible") // keep the loop from being optimized away
	}
}

// BenchmarkFlatPredict measures the compiled scorer called directly,
// without the Model dispatch; pinned to 0 allocs/op.
func BenchmarkFlatPredict(b *testing.B) {
	m, rows := windowModel(b)
	f := m.Flat()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		r := i % benchRows * m.Dim
		sink += f.Predict(rows[r : r+m.Dim])
	}
	if sink == -1 {
		b.Fatal("impossible")
	}
}

// BenchmarkPredictMatrix scores a 512-row matrix per op, single worker,
// moving through the benchRows rows; pinned to 0 allocs/op.
func BenchmarkPredictMatrix(b *testing.B) {
	m, rows := windowModel(b)
	const n = 512
	out := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % (benchRows / n) * n * m.Dim
		m.PredictMatrix(rows[r:r+n*m.Dim], out, 1)
	}
}

// BenchmarkCompile builds the scorer of a 30-tree, 31-leaf window model:
// what every Load and every Train pays once, and a rollout twice. Its
// allocs/op are pinned in testdata/alloc_budgets.txt: exact-size slices
// counted up front, nothing per tree or per feature.
func BenchmarkCompile(b *testing.B) {
	m, _ := windowModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// windowDataset draws n rows shaped like one LFO training window
// (features.Dim = 53 columns): three dense columns (size, cost, free
// bytes) and fifty gap columns of which a row has only a prefix — the
// object's request history so far — so gap column i is missing in a share
// of rows that climbs from about 67 % to 94 %. Labels follow size and the
// first gaps, with noise, so the trees split on dense and sparse columns
// alike and learn missing directions.
func windowDataset(n int, seed int64) *Dataset {
	const dim = 53
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n*dim)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x[i*dim : (i+1)*dim]
		size := math.Floor(math.Exp(9.4 + rng.NormFloat64()))
		row[0], row[1] = size, size
		row[2] = math.Floor(rng.Float64() * (64 << 20))
		// A third of the rows have any history; each further gap is kept
		// with probability 0.966, which leaves 6 % of rows with all fifty.
		gaps := 0
		if rng.Float64() < 0.33 {
			for gaps = 1; gaps < dim-3 && rng.Float64() < 0.966; gaps++ {
			}
		}
		scale := math.Exp(rng.NormFloat64() * 2)
		for g := 0; g < dim-3; g++ {
			if g < gaps {
				row[3+g] = math.Floor(rng.ExpFloat64() * 3000 * scale)
			} else {
				row[3+g] = math.NaN()
			}
		}
		score := 10 - math.Log(size)
		if gaps > 0 {
			score += 4 - math.Log1p(row[3])/2
		} else {
			score -= 1.5
		}
		if score+rng.NormFloat64() > 0.5 {
			y[i] = 1
		}
	}
	return DatasetFromMatrix(dim, x, y)
}

// evictionDataset draws n rows shaped like the learned evictor's (evict.Dim
// = 5 columns: size, cost, frequency, age, idle time, the last two whole
// trace-time units with idle <= age) and, as evict.BuildDataset leaves
// them, NaN in age and idle for the third of the rows that are a first
// sight. Labels follow frequency and idle time, with noise, so the trees
// split on the two moving features at many thresholds.
func evictionDataset(n int, seed int64) *Dataset {
	const dim = 5
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n*dim)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x[i*dim : (i+1)*dim]
		size := math.Floor(math.Exp(9.4 + rng.NormFloat64()))
		freq := 1 + math.Floor(rng.ExpFloat64()*2)
		age := math.Floor(rng.ExpFloat64() * 4000)
		idle := math.Floor(age * rng.Float64())
		row[0], row[1], row[2], row[3], row[4] = size, 1, freq, age, idle
		score := math.Log1p(freq) + 3 - math.Log1p(idle)/2
		if rng.Float64() < 0.33 {
			row[2], row[3], row[4] = 1, math.NaN(), math.NaN()
			score = -0.5
		}
		if score+rng.NormFloat64() > 0.5 {
			y[i] = 1
		}
	}
	return DatasetFromMatrix(dim, x, y)
}

// BenchmarkPredictStable is one miss of the learned evictor's score cache:
// a 30-tree ranker over eviction-shaped rows, scored together with the
// stability horizons of age and idle time. Pinned to 0 allocs/op in
// testdata/alloc_budgets.txt.
func BenchmarkPredictStable(b *testing.B) {
	p := DefaultParams()
	p.Workers = 1
	m, err := Train(evictionDataset(10000, 1), p)
	if err != nil {
		b.Fatal(err)
	}
	rows := evictionDataset(benchRows, 2).matrix()
	for i, v := range rows {
		if math.IsNaN(v) { // a resident always has an age
			rows[i] = float64(i % 3000)
		}
	}
	feats, limits := []int{3, 4}, make([]float64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		r := i % benchRows * m.Dim
		sink += m.PredictStable(rows[r:r+m.Dim], feats, limits) + limits[0]
	}
	if sink == -1 {
		b.Fatal("impossible")
	}
}

// BenchmarkPredictStableAdvance is a lapsed score of the learned evictor
// carried forward instead of scored again: each of the rows of
// BenchmarkPredictStable is scored once with PredictCarry, then its age and
// idle time grow together past the nearer of their horizons, by up to 500
// time units more, and every iteration advances a copy of the row's state
// (the copy, 32 words, is part of the measured cost). Pinned to 0
// allocs/op in testdata/alloc_budgets.txt.
func BenchmarkPredictStableAdvance(b *testing.B) {
	p := DefaultParams()
	p.Workers = 1
	m, err := Train(evictionDataset(10000, 1), p)
	if err != nil {
		b.Fatal(err)
	}
	rows := evictionDataset(benchRows, 2).matrix()
	for i, v := range rows {
		if math.IsNaN(v) { // a resident always has an age
			rows[i] = float64(i % 3000)
		}
	}
	feats, limits := []int{3, 4}, make([]float64, 2)
	words := m.CarryWords(len(feats))
	states := make([]uint32, benchRows*words)
	grown := append([]float64(nil), rows...)
	for r := 0; r < benchRows; r++ {
		row := rows[r*m.Dim : (r+1)*m.Dim]
		m.PredictCarry(row, feats, limits, states[r*words:(r+1)*words])
		gap := math.Min(limits[0]-row[3], limits[1]-row[4])
		if math.IsInf(gap, 1) {
			gap = 0
		}
		d := math.Floor(gap) + 1 + float64(r%500)
		grown[r*m.Dim+3] += d
		grown[r*m.Dim+4] += d
	}
	state := make([]uint32, words)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		r := i % benchRows
		copy(state, states[r*words:(r+1)*words])
		sink += m.Advance(grown[r*m.Dim:(r+1)*m.Dim], feats, limits, state) + limits[0]
	}
	if sink == -1 {
		b.Fatal("impossible")
	}
}

// BenchmarkTrainWindow is one window handoff's training: 30 default trees
// on 10 000 window-shaped rows, single worker. Its allocs/op are pinned in
// testdata/alloc_budgets.txt (scripts/check.sh): the trainer's scratch —
// row arena, histograms, leaf and node buffers — is reused across trees, so
// a count that rises means a per-tree or per-split allocation came back.
func BenchmarkTrainWindow(b *testing.B) {
	d := windowDataset(10000, 1)
	p := DefaultParams()
	p.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Train(d, p)
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Trees) != p.NumIterations {
			b.Fatalf("trained %d trees, want %d", len(m.Trees), p.NumIterations)
		}
	}
}
