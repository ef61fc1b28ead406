package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"lfo/internal/evict"
	"lfo/internal/features"
	"lfo/internal/gen"
	"lfo/internal/obs"
	"lfo/internal/opt"
	"lfo/internal/trace"
)

// referenceExtract is Extract as it was before the online recorder took
// over (parent of PR 23): the free-bytes column from a replay of a separate
// admit-all LRU cache, then a sequential Features/Update pass of a fresh
// tracker, as a dense row-major matrix. Extract must return these rows bit
// for bit.
func referenceExtract(t *testing.T, tr *trace.Trace, cfg Config) (feats []float64, labels []bool) {
	t.Helper()
	cfg = cfg.withDefaults()
	res, err := opt.Compute(tr, cfg.OPT)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := evict.New(evict.Config{CacheSize: cfg.CacheSize, Eviction: "lru"}) // admit-all LRU
	if err != nil {
		t.Fatal(err)
	}
	tracker := features.NewTracker(cfg.MaxTrackedObjects)
	feats = make([]float64, tr.Len()*features.Dim)
	for i, r := range tr.Requests {
		tracker.Features(r, ref.Free(), feats[i*features.Dim:(i+1)*features.Dim])
		tracker.Update(r)
		ref.Request(r)
	}
	return feats, res.Admit
}

// TestExtractMatchesReferenceReplay: the rows the bootstrap cache's Request
// path records are the rows of the reference replay, Float64bits-equal (the
// NaN of a missing gap included), with the same labels beside them — on
// both mixes, on a cache smaller than some of its objects (which bypass
// both caches) and with a tracker at its bound, for one and two workers.
func TestExtractMatchesReferenceReplay(t *testing.T) {
	cases := []struct {
		name      string
		mix       func(int, int64) gen.Config
		cacheSize int64
		tracked   int
		oversized bool
	}{
		{name: "cdn", mix: gen.CDNMix, cacheSize: 64 << 20},
		{name: "web", mix: gen.WebMix, cacheSize: 1 << 20},
		{name: "cdn-oversized", mix: gen.CDNMix, cacheSize: 1 << 20, oversized: true},
		{name: "web-bounded-tracker", mix: gen.WebMix, cacheSize: 1 << 20, tracked: 64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := gen.Generate(c.mix(6000, 21))
			if err != nil {
				t.Fatal(err)
			}
			tr = tr.WithCosts(trace.ObjectiveBHR)
			if c.oversized && tr.ComputeStats().MaxSize <= c.cacheSize {
				t.Fatalf("largest object %d fits the %d-byte cache", tr.ComputeStats().MaxSize, c.cacheSize)
			}
			for _, workers := range []int{1, 2} {
				cfg := Config{
					CacheSize:         c.cacheSize,
					OPT:               opt.Config{Algorithm: opt.AlgoGreedy},
					MaxTrackedObjects: c.tracked,
					Workers:           workers,
				}
				feats, labels := referenceExtract(t, tr, cfg)
				got, err := Extract(tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Requests != tr.Len() || got.Rows.Len() != tr.Len() || len(got.Labels) != len(labels) {
					t.Fatalf("workers=%d: %d requests, %d rows, %d labels; reference %d, %d, %d", workers,
						got.Requests, got.Rows.Len(), len(got.Labels), tr.Len(), tr.Len(), len(labels))
				}
				row := make([]float64, features.Dim)
				for i := 0; i < tr.Len(); i++ {
					got.Rows.Expand(i, row)
					for f, v := range feats[i*features.Dim : (i+1)*features.Dim] {
						if math.Float64bits(row[f]) != math.Float64bits(v) {
							t.Fatalf("workers=%d: row %d feature %d = %v, reference %v", workers, i, f, row[f], v)
						}
					}
				}
				for i := range labels {
					if got.Labels[i] != labels[i] {
						t.Fatalf("workers=%d: label %d = %v, reference %v", workers, i, got.Labels[i], labels[i])
					}
				}
			}
		})
	}
}

// TestTrainOnWindowModelPinned holds TrainOnWindow to the model it produced
// at the parent of PR 23 (commit 70600f4), when extraction was a separate
// replay and the fit was written out beside trainWindow's: SHA-256 of
// Model.Save, greedy and exact-flow labels, one and two workers.
func TestTrainOnWindowModelPinned(t *testing.T) {
	pins := map[string]string{
		"cdn/greedy": "597f36a3b0346ac1aafe0da15aed54442cf6014d353817752d4223f6ec9288cb",
		"web/flow":   "8674cbcee15e948d92635e503d0124aadda215ca9cf3e6a970d2ac793ea8a861",
	}
	for name, want := range pins {
		mix, cfg := gen.CDNMix, Config{CacheSize: 64 << 20, OPT: opt.Config{Algorithm: opt.AlgoGreedy}}
		if name == "web/flow" {
			mix, cfg = gen.WebMix, Config{CacheSize: 1 << 20, OPT: opt.Config{Algorithm: opt.AlgoFlow, RankFraction: 0.5}}
		}
		tr, err := gen.Generate(mix(3000, 5))
		if err != nil {
			t.Fatal(err)
		}
		tr = tr.WithCosts(trace.ObjectiveBHR)
		for _, workers := range []int{1, 2} {
			cfg.Workers = workers
			model, _, err := TrainOnWindow(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := model.Save(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s workers=%d: model %s, pinned %s", name, workers, got, want)
			}
		}
	}
}

// TestAgreementGaugeIsTally holds one window's handoff to the shared
// count: core_train_agreement_ppm is (n − fp − fn)·10⁶/n from
// tallyAgreement's counts for the model trainWindow fitted, scored here
// at another worker count, and Evaluate reads the same counts.
func TestAgreementGaugeIsTally(t *testing.T) {
	tr := webTrace(t, 4000, 1)
	cfg := testConfig(2<<20, tr.Len())
	cfg.Workers = 4
	cfg.Obs = obs.NewRegistry()
	ex, err := Extract(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lfo, err := New(cfg) // for the configuration and metrics a handoff runs with
	if err != nil {
		t.Fatal(err)
	}
	cfg = lfo.cfg
	model := trainWindow(tr.Requests, ex.Rows, cfg, lfo.m).model
	n := tr.Len()
	pos, fp, fn := tallyAgreement(model, ex.Rows, ex.Labels, cfg.Cutoff, 1)
	if fp == 0 || fn == 0 {
		t.Fatalf("fp=%d fn=%d: a window without both kinds of error pins neither", fp, fn)
	}
	want := int64(n-fp-fn) * 1e6 / int64(n)
	if got := cfg.Obs.Gauge("core_train_agreement_ppm").Value(); got != want {
		t.Errorf("core_train_agreement_ppm = %d, want (n − fp − fn)·10⁶/n = %d (n=%d fp=%d fn=%d)", got, want, n, fp, fn)
	}
	ev := Evaluate(model, ex, cfg.Cutoff)
	if ev.Positives != pos || ev.Negatives != n-pos || ev.Error != float64(fp+fn)/float64(n) {
		t.Errorf("Evaluate = %+v, disagrees with the tally: %d positives, fp=%d fn=%d", ev, pos, fp, fn)
	}
}
