package core

import (
	"math"
	"testing"

	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/gen"
	"lfo/internal/obs"
	"lfo/internal/opt"
	"lfo/internal/trace"
)

// recordReplay serves tr to p while a second tracker of the same bound
// observes the same requests at the same free bytes, so each dense row it
// writes is the row p's tracker wrote into the window record. check runs
// after every request with the dense rows of the window being recorded
// (all of them when the request closed the window), the request's row
// width and whether the request closed the window.
func recordReplay(tr *trace.Trace, p *LFO, check func(window [][]float64, width int, closed bool)) {
	shadow := features.NewTracker(p.cfg.MaxTrackedObjects)
	var window [][]float64
	closed := p.completedWindows
	for _, r := range tr.Requests {
		row := make([]float64, features.Dim)
		w := shadow.Observe(r, p.res.Store.Free(), row)
		window = append(window, row)
		p.Request(r)
		done := p.completedWindows != closed
		check(window, w, done)
		if done {
			closed, window = p.completedWindows, window[:0:0]
		}
	}
}

// fewTrees is the default learner cut to three trees: the record tests
// need models that decide, not good ones, and run under -race.
func fewTrees() gbdt.Params {
	p := gbdt.DefaultParams()
	p.NumIterations = 3
	return p
}

// sameRows fails unless the store holds len(window) rows and its rows from
// on, expanded, are the window's from on, bit for bit.
func sameRows(t *testing.T, what string, rows *gbdt.RowStore, window [][]float64, from int) {
	t.Helper()
	if rows.Len() != len(window) {
		t.Fatalf("%s: %d rows recorded, %d observed", what, rows.Len(), len(window))
	}
	got := make([]float64, features.Dim)
	for i := from; i < len(window); i++ {
		rows.Expand(i, got)
		for f, v := range window[i] {
			if math.Float64bits(got[f]) != math.Float64bits(v) {
				t.Fatalf("%s: row %d feature %d = %v, Observe wrote %v", what, i, f, got[f], v)
			}
		}
	}
}

// TestRecordMatchesObservedRows: every row the window record keeps,
// expanded, is Float64bits-equal to the dense row Observe wrote for it —
// on CDN and web traces, with an unbounded and a bounded tracker, at
// DeployLag 0 and W/10, over four windows. The row just recorded is
// checked after every request, and each window whole before the request
// that closes it; at a lag the closed window is checked whole again in the
// spare buffer its round trains on, its last row included. At every close
// core_window_record_bytes reads both buffers.
func TestRecordMatchesObservedRows(t *testing.T) {
	const w = 1500
	for _, c := range []struct {
		name      string
		mix       func(int, int64) gen.Config
		cacheSize int64
	}{
		{"cdn", gen.CDNMix, 64 << 20},
		{"web", gen.WebMix, 1 << 20},
	} {
		tr, err := gen.Generate(c.mix(4*w, 17))
		if err != nil {
			t.Fatal(err)
		}
		tr = tr.WithCosts(trace.ObjectiveBHR)
		for _, tracked := range []int{0, 200} {
			for _, lag := range []int{0, w / 10} {
				cfg := Config{CacheSize: c.cacheSize, WindowSize: w, DeployLag: lag, MaxTrackedObjects: tracked,
					OPT: opt.Config{Algorithm: opt.AlgoGreedy}, GBDT: fewTrees(), Workers: 1, Obs: obs.NewRegistry()}
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				gauge := cfg.Obs.Gauge("core_window_record_bytes")
				recordReplay(tr, p, func(window [][]float64, _ int, closed bool) {
					if both := p.winRows.Bytes() + p.spareRows.Bytes(); closed && gauge.Value() != both {
						t.Fatalf("%s lag=%d: core_window_record_bytes = %d, the two buffers hold %d", c.name, lag, gauge.Value(), both)
					}
					switch {
					case closed && lag > 0:
						sameRows(t, c.name+" closed window", p.spareRows, window, 0)
					case closed:
					case len(window) == w-1:
						sameRows(t, c.name+" window", p.winRows, window, 0)
					default:
						sameRows(t, c.name+" last row", p.winRows, window, len(window)-1)
					}
				})
				p.Close()
				if p.Windows() != 4 {
					t.Fatalf("%s tracked=%d lag=%d: %d windows deployed, want 4", c.name, tracked, lag, p.Windows())
				}
			}
		}
	}
}

// TestRecordMemoryPlateaus: over twelve windows of a stationary web trace
// the record's retained bytes, as core_window_record_bytes reports them,
// stop growing once the window with the most cells has been seen, and a
// window that stores no more cells than an earlier one allocates nothing
// for its record. Both are far below what dense rows would hold. At
// DeployLag 0 one buffer records every window, in the chunks it started
// with: the first row of every window lies where the first window's did.
func TestRecordMemoryPlateaus(t *testing.T) {
	const w, windows = 2000, 12
	tr := webTrace(t, w*windows, 23)
	cfg := testConfig(1<<20, w)
	cfg.OPT.Algorithm = opt.AlgoGreedy
	cfg.GBDT = fewTrees()
	cfg.Obs = obs.NewRegistry()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gauge := cfg.Obs.Gauge("core_window_record_bytes")
	var cells, bytes []int64
	cur := int64(0)
	var first *float64
	recordReplay(tr, p, func(window [][]float64, width int, closed bool) {
		if len(window) == 1 {
			if at := &p.winRows.Row(0)[0]; first == nil {
				first = at
			} else if at != first {
				t.Fatalf("window %d's first row is not where the first window's was: the record's chunks were replaced", len(cells))
			}
		}
		cur += int64(width)
		if closed {
			cells, bytes = append(cells, cur), append(bytes, gauge.Value())
			cur = 0
		}
	})
	if len(cells) != windows {
		t.Fatalf("%d windows closed, want %d", len(cells), windows)
	}
	most := 0
	for k := 1; k < windows; k++ {
		if cells[k] <= cells[most] && bytes[k] != bytes[k-1] {
			t.Errorf("window %d stores %d cells, no more than window %d's %d, yet the record went from %d to %d bytes",
				k, cells[k], most, cells[most], bytes[k-1], bytes[k])
		}
		if cells[k] > cells[most] {
			most = k
		}
	}
	for k := most + 1; k < windows; k++ {
		if bytes[k] != bytes[most] {
			t.Errorf("window %d: record %d bytes, %d after the largest window %d", k, bytes[k], bytes[most], most)
		}
	}
	if dense := int64(w * features.Dim * 8); bytes[windows-1] > dense/2 {
		t.Errorf("record holds %d bytes, over half of dense rows' %d", bytes[windows-1], dense)
	}
	t.Logf("cells per window %v; record bytes %v", cells, bytes)
}

// BenchmarkLFORequest is one request through a cache with a deployed model
// and a warm record: the bootstrap window's handoff has deployed a model,
// and a replay of the next window has grown the record to its size. The
// timed loop replays that window again and again, a span of trace time
// later each time, emptying the record before the request that would close
// it, so no handoff runs. Pinned to 0 allocs/op in
// testdata/alloc_budgets.txt.
func BenchmarkLFORequest(b *testing.B) {
	const w = 10000
	tr, err := gen.Generate(gen.CDNMix(2*w, 7))
	if err != nil {
		b.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	p, err := New(Config{CacheSize: 64 << 20, WindowSize: w, OPT: opt.Config{Algorithm: opt.AlgoGreedy}, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range tr.Requests[:w] {
		p.Request(r)
	}
	if p.Model() == nil {
		b.Fatal("the bootstrap window deployed no model")
	}
	replay := tr.Requests[w : 2*w-1]
	span := replay[len(replay)-1].Time - tr.Requests[0].Time + 1
	shift := int64(0)
	i := 0
	next := func() {
		if i == len(replay) {
			i, shift = 0, shift+span
			p.winReqs = p.winReqs[:0]
			p.winRows.Reset()
		}
		r := replay[i]
		r.Time += shift
		p.Request(r)
		i++
	}
	for range replay {
		next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		next()
	}
}
