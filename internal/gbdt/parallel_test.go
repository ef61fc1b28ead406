package gbdt

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// modelBytes gob-serializes a model so determinism checks compare the
// exact float bit patterns, not rounded renderings.
func modelBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainDeterministicAcrossWorkers proves the parallel trainer is
// byte-identical to the sequential one for every worker count: the shard
// decomposition and reduction order are fixed, so the same sums, splits,
// and leaf values come out no matter how many goroutines computed them.
func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		seq := DefaultParams()
		seq.Workers = 1
		ref, err := Train(synth(4000, 13, 0.05), seq)
		if err != nil {
			t.Fatal(err)
		}
		want := modelBytes(t, ref)

		for _, workers := range []int{2, 8} {
			p := DefaultParams()
			p.Workers = workers
			m, err := Train(synth(4000, 13, 0.05), p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, modelBytes(t, m)) {
				t.Errorf("workers=%d: serialized model differs from workers=1", workers)
			}
		}
	})
}

// TestPredictMatrixMatchesPredict pins batched scoring to per-row scoring
// for several worker counts.
func TestPredictMatrixMatchesPredict(t *testing.T) {
	d := synth(500, 17, 0.05)
	m, err := Train(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, d.Len())
	for i := range want {
		want[i] = m.Predict(d.Row(i))
	}
	for _, workers := range []int{0, 1, 3, 8} {
		got := make([]float64, d.Len())
		m.PredictMatrix(d.matrix(), got, workers)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d row %d: PredictMatrix %v != Predict %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestPredictMatrixScalesWithWorkers is the paper's Fig 7 shape — prediction
// throughput grows with predictor threads — held where the kernel lives.
// Four workers must score what one worker scores; with four real cores
// they must also do it at more than 1.5 times the rate (a host with fewer
// proves nothing about scaling, so there only the scores are compared).
// For the rate itself see the repository benchmark's gbdt.predict_ns.
func TestPredictMatrixScalesWithWorkers(t *testing.T) {
	m, rows := windowModel(t)
	rate := func(workers int, out []float64) float64 {
		m.PredictMatrix(rows, out, workers) // warm up
		best := 0.0
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			m.PredictMatrix(rows, out, workers)
			if r := float64(len(out)) / time.Since(start).Seconds(); r > best {
				best = r
			}
		}
		return best
	}
	one, four := make([]float64, benchRows), make([]float64, benchRows)
	r1, r4 := rate(1, one), rate(4, four)
	for i := range one {
		if math.Float64bits(one[i]) != math.Float64bits(four[i]) {
			t.Fatalf("row %d: 4 workers scored %v, 1 worker %v", i, four[i], one[i])
		}
	}
	t.Logf("%.0f rows/s with 1 worker, %.0f with 4, on %d CPUs", r1, r4, runtime.NumCPU())
	if runtime.NumCPU() >= 4 && r4 < 1.5*r1 {
		t.Errorf("4 workers %.0f rows/s < 1.5x one worker's %.0f", r4, r1)
	}
}

// TestPredictMatrixDuringModelSwap stress-tests the deployment pattern the
// core pipeline uses: readers score batches through an atomic model
// pointer while a writer swaps in freshly trained models. Run under
// -race (scripts/check.sh does) this proves scoring never shares mutable
// state with training.
func TestPredictMatrixDuringModelSwap(t *testing.T) {
	d := synth(2000, 19, 0.05)
	p := DefaultParams()
	p.NumIterations = 5

	var current atomic.Pointer[Model]
	first, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	current.Store(first)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for swap := 0; swap < 4; swap++ {
			q := p
			q.NumLeaves = 4 + 8*swap
			m, err := Train(d, q)
			if err != nil {
				t.Error(err)
				break
			}
			current.Store(m)
		}
		close(stop)
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, d.Len())
			for {
				select {
				case <-stop:
					return
				default:
				}
				current.Load().PredictMatrix(d.matrix(), out, 2)
			}
		}()
	}
	wg.Wait()
}
