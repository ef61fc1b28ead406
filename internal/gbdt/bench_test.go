package gbdt

import (
	"math"
	"math/rand"
	"testing"
)

// benchModel builds a synthetic model of complete binary trees, sized to
// look like a trained LFO classifier (depth-6 trees over a small feature
// vector) without depending on the trainer. The model is compiled, like
// every trained or loaded model.
func benchModel(trees, depth, dim int) *Model {
	m := &Model{Dim: dim, BaseScore: 0.1}
	for t := 0; t < trees; t++ {
		var tr Tree
		var build func(d int) int32
		build = func(d int) int32 {
			i := int32(len(tr.Nodes))
			if d == 0 {
				tr.Nodes = append(tr.Nodes, node{Feature: -1, Value: 0.01 * float64(t+1)})
				return i
			}
			tr.Nodes = append(tr.Nodes, node{
				Feature:   int32((d + t) % dim),
				Threshold: float64(d) / float64(depth+1),
			})
			l := build(d - 1)
			r := build(d - 1)
			tr.Nodes[i].Left, tr.Nodes[i].Right = l, r
			return i
		}
		build(depth)
		m.Trees = append(m.Trees, tr)
	}
	if err := m.Compile(); err != nil {
		panic(err)
	}
	return m
}

func benchRow(dim int) []float64 {
	row := make([]float64, dim)
	for i := range row {
		row[i] = float64(i) / float64(dim)
	}
	return row
}

// BenchmarkPredict is the per-row serving hot path (Model.Predict over
// the compiled flat kernel); it is pinned to 0 allocs/op by
// testdata/alloc_budgets.txt (scripts/check.sh) and enforced statically by
// the //lfo:hotpath annotation on Predict.
func BenchmarkPredict(b *testing.B) {
	m := benchModel(32, 6, 16)
	row := benchRow(m.Dim)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.Predict(row)
	}
	if sink == -1 {
		b.Fatal("impossible") // keep the loop from being optimized away
	}
}

// BenchmarkFlatPredict measures the compiled kernel called directly,
// without the Model dispatch; pinned to 0 allocs/op.
func BenchmarkFlatPredict(b *testing.B) {
	m := benchModel(32, 6, 16)
	f := m.Flat()
	row := benchRow(m.Dim)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += f.Predict(row)
	}
	if sink == -1 {
		b.Fatal("impossible")
	}
}

// BenchmarkNodePredict measures the retired pointer-walk oracle on the
// same model, as the in-tree baseline the flat kernel is compared against.
func BenchmarkNodePredict(b *testing.B) {
	m := benchModel(32, 6, 16)
	row := benchRow(m.Dim)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += sigmoid(m.nodeRawPredict(row))
	}
	if sink == -1 {
		b.Fatal("impossible")
	}
}

func benchMatrix(m *Model, rows int) []float64 {
	flat := make([]float64, rows*m.Dim)
	for i := range flat {
		flat[i] = float64(i%m.Dim) / float64(m.Dim)
	}
	return flat
}

// BenchmarkPredictBatch scores a 512-row matrix per op through the
// historical entry point, single worker; 0 allocs/op now that the batch
// fan-out passes a static function instead of a per-call closure.
func BenchmarkPredictBatch(b *testing.B) {
	m := benchModel(32, 6, 16)
	const rows = 512
	flat := benchMatrix(m, rows)
	out := make([]float64, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatch(flat, out, 1)
	}
}

// BenchmarkPredictMatrix scores a 512-row matrix per op with the
// batch-major level-synchronous walk, single worker; pinned to 0
// allocs/op.
func BenchmarkPredictMatrix(b *testing.B) {
	m := benchModel(32, 6, 16)
	const rows = 512
	flat := benchMatrix(m, rows)
	out := make([]float64, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictMatrix(flat, out, 1)
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
