package core

import (
	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/opt"
	"lfo/internal/par"
	"lfo/internal/trace"
)

// Extraction is an aligned set of online feature vectors and OPT labels
// for one trace window: what one round of LFO's training pipeline sees,
// held still so the accuracy experiments (Fig 5a/5b/5c) can measure
// prediction error against OPT rather than through cache metrics.
type Extraction struct {
	// Rows holds request i's feature row as row i, features.Dim wide and
	// stored without its missing tail.
	Rows *gbdt.RowStore
	// Labels[i] reports whether OPT admits request i.
	Labels []bool
	// Requests is the number of rows.
	Requests int
}

// Extract computes features and OPT labels for every request in the trace.
//
// The rows are recorded by the online recorder itself: the trace is served
// by an LFO cache whose window never closes, and the rows its Request path
// wrote down are returned beside opt.Compute's labels. A cache that has not
// trained yet is in its bootstrap phase — admit everything, evict
// least-recently-used — so the free-bytes feature is that of a plain LRU
// reference cache of the same capacity: deterministic and independent of
// the model under study, while every other column is by construction what
// a serving cache would have fed its model.
func Extract(tr *trace.Trace, cfg Config) (*Extraction, error) {
	cfg = cfg.withDefaults()
	rec, err := New(Config{
		CacheSize:         cfg.CacheSize,
		WindowSize:        tr.Len() + 1,
		Eviction:          "lru",
		MaxTrackedObjects: cfg.MaxTrackedObjects,
	})
	if err != nil {
		return nil, err
	}
	res, err := opt.Compute(tr, cfg.OPT)
	if err != nil {
		return nil, err
	}
	for _, r := range tr.Requests {
		rec.Request(r)
	}
	return &Extraction{Rows: rec.winRows, Labels: res.Admit, Requests: tr.Len()}, nil
}

// Dataset converts the extraction into a training set. The rows are
// shared, not copied; do not mutate the extraction while the dataset is in
// use.
func (e *Extraction) Dataset() *gbdt.Dataset {
	return dataset(e.Rows, e.Labels[:e.Requests])
}

// dataset pairs recorded feature rows with OPT's decisions as 0/1 labels.
// The rows are shared, not copied.
func dataset(rows *gbdt.RowStore, admit []bool) *gbdt.Dataset {
	y := make([]float64, len(admit))
	for i, a := range admit {
		if a {
			y[i] = 1
		}
	}
	return gbdt.DatasetFromRows(rows, y)
}

// fit is the learning step of Figure 2, shared by the online handoff
// (trainWindow) and its offline counterpart (TrainOnWindow): a window's
// recorded rows and OPT's decisions for them become the admission model.
func fit(rows *gbdt.RowStore, admit []bool, p gbdt.Params) (*gbdt.Model, error) {
	return gbdt.Train(dataset(rows, admit), p)
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
// admission cutoff. Rows are scored in parallel across all cores; the
// verdict is identical to a sequential scan.
func Evaluate(m *gbdt.Model, e *Extraction, cutoff float64) EvalResult {
	pos, fp, fn := tallyAgreement(m, e.Rows, e.Labels[:e.Requests], cutoff, 0)
	res := EvalResult{Positives: pos, Negatives: e.Requests - pos}
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

// tallyAgreement scores the first len(labels) rows over the given workers,
// each expanded into a dense row on the worker's stack, and counts the
// verdicts at the cutoff against OPT's labels: the OPT-admitted rows, the
// rows OPT rejects and the model admits (fp), and the rows OPT admits and
// the model rejects (fn). The one count behind Evaluate and the handoff's
// core_train_agreement_ppm gauge.
func tallyAgreement(m *gbdt.Model, rows *gbdt.RowStore, labels []bool, cutoff float64, workers int) (positives, fp, fn int) {
	preds := make([]float64, len(labels))
	par.Ranges(len(labels), workers, 256, func(lo, hi int) {
		var row [features.Dim]float64
		for i := lo; i < hi; i++ {
			rows.Expand(i, row[:])
			preds[i] = m.Predict(row[:])
		}
	})
	for i, label := range labels {
		if admit := preds[i] >= cutoff; label {
			positives++
			if !admit {
				fn++
			}
		} else if admit {
			fp++
		}
	}
	return positives, fp, fn
}

// TrainOnWindow extracts a window and fits a model to it — the offline
// equivalent of one Figure 2 training round.
func TrainOnWindow(tr *trace.Trace, cfg Config) (*gbdt.Model, *Extraction, error) {
	cfg = cfg.withDefaults()
	ex, err := Extract(tr, cfg)
	if err != nil {
		return nil, nil, err
	}
	m, err := fit(ex.Rows, ex.Labels, cfg.GBDT)
	if err != nil {
		return nil, nil, err
	}
	return m, ex, nil
}
