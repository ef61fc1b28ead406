package core

import (
	"fmt"

	"lfo/internal/evict"
	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/opt"
	"lfo/internal/trace"
)

// Extraction is an aligned set of online feature vectors and OPT labels
// for one trace window — the offline counterpart of LFO's training
// pipeline, used by the accuracy experiments (Fig 5a/5b/5c) where
// prediction error is measured against OPT rather than through cache
// metrics.
//
// The free-bytes feature requires a cache state; offline extraction
// replays the window against a plain LRU reference cache of the same
// capacity, which makes the features deterministic and independent of the
// model under study.
type Extraction struct {
	// Feats is a flat row-major matrix, features.Dim wide.
	Feats []float64
	// Labels[i] reports whether OPT admits request i.
	Labels []bool
	// Requests is the number of rows.
	Requests int
}

// Extract computes features and OPT labels for every request in the trace.
func Extract(tr *trace.Trace, cfg Config) (*Extraction, error) {
	cfg = cfg.withDefaults()
	if cfg.CacheSize <= 0 {
		return nil, fmt.Errorf("core: CacheSize must be positive, got %d", cfg.CacheSize)
	}
	res, err := opt.Compute(tr, cfg.OPT)
	if err != nil {
		return nil, err
	}

	// The free-bytes feature comes from a sequential replay of the
	// reference LRU (cache state is inherently serial); with that column
	// precomputed, the tracker-driven rows shard across workers.
	free := make([]int64, tr.Len())
	ref, err := evict.New(evict.Config{CacheSize: cfg.CacheSize, Eviction: "lru"}) // admit-all LRU
	if err != nil {
		return nil, err
	}
	for i, r := range tr.Requests {
		free[i] = ref.Free()
		ref.Request(r)
	}
	tracker := features.NewTracker(cfg.MaxTrackedObjects)
	return &Extraction{
		Feats:    tracker.BuildMatrix(tr.Requests, free, cfg.Workers),
		Labels:   res.Admit,
		Requests: tr.Len(),
	}, nil
}

// Row returns feature row i.
func (e *Extraction) Row(i int) []float64 {
	return e.Feats[i*features.Dim : (i+1)*features.Dim]
}

// Dataset converts the extraction into a training set. The feature
// matrix is shared, not copied; do not mutate the extraction while the
// dataset is in use.
func (e *Extraction) Dataset() *gbdt.Dataset {
	y := make([]float64, e.Requests)
	for i, admit := range e.Labels[:e.Requests] {
		if admit {
			y[i] = 1
		}
	}
	return gbdt.DatasetFromMatrix(features.Dim, e.Feats, y)
}

// Subset returns an extraction over rows [lo, hi).
func (e *Extraction) Subset(lo, hi int) *Extraction {
	if lo < 0 {
		lo = 0
	}
	if hi > e.Requests {
		hi = e.Requests
	}
	if lo > hi {
		lo = hi
	}
	return &Extraction{
		Feats:    e.Feats[lo*features.Dim : hi*features.Dim],
		Labels:   e.Labels[lo:hi],
		Requests: hi - lo,
	}
}

// EvalResult quantifies a model's agreement with OPT on an extraction.
type EvalResult struct {
	// Error is the disagreement rate (1 − accuracy) at the cutoff.
	Error float64
	// FalsePositiveRate is the share of OPT-rejected requests the model
	// admits ("accidentally admitted", Fig 5a).
	FalsePositiveRate float64
	// FalseNegativeRate is the share of OPT-admitted requests the model
	// rejects ("accidentally not admitted", Fig 5a).
	FalseNegativeRate float64
	// Positives is the number of OPT-admitted requests.
	Positives int
	// Negatives is the number of OPT-rejected requests.
	Negatives int
}

// Evaluate measures model-vs-OPT agreement on the extraction at the given
// admission cutoff. Rows are scored with one batched prediction across
// all cores; the verdict is identical to a sequential scan.
func Evaluate(m *gbdt.Model, e *Extraction, cutoff float64) EvalResult {
	probs := make([]float64, e.Requests)
	m.PredictMatrix(e.Feats[:e.Requests*features.Dim], probs, 0)
	var res EvalResult
	fp, fn := 0, 0
	for i := 0; i < e.Requests; i++ {
		pred := probs[i] >= cutoff
		if e.Labels[i] {
			res.Positives++
			if !pred {
				fn++
			}
		} else {
			res.Negatives++
			if pred {
				fp++
			}
		}
	}
	if e.Requests > 0 {
		res.Error = float64(fp+fn) / float64(e.Requests)
	}
	if res.Negatives > 0 {
		res.FalsePositiveRate = float64(fp) / float64(res.Negatives)
	}
	if res.Positives > 0 {
		res.FalseNegativeRate = float64(fn) / float64(res.Positives)
	}
	return res
}

// TrainOnWindow extracts a window and fits a model to it — the offline
// equivalent of one Figure 2 training round.
func TrainOnWindow(tr *trace.Trace, cfg Config) (*gbdt.Model, *Extraction, error) {
	cfg = cfg.withDefaults()
	ex, err := Extract(tr, cfg)
	if err != nil {
		return nil, nil, err
	}
	m, err := gbdt.Train(ex.Dataset(), cfg.GBDT)
	if err != nil {
		return nil, nil, err
	}
	return m, ex, nil
}
