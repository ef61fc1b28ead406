// Online-learning bridge for the retrain gap (§2.4's robustness
// concern): between window retrains the GBDT admission model is frozen
// and drift-blind. Two mechanisms cover the gap.
//
// First, a shadow OGD learner (internal/policy/ogd) runs next to the
// model and its fractional allocations teach a per-size-class additive
// bias: when the online learner values a class of objects more (or less)
// than the frozen model scores them, the bias pulls the effective
// admission likelihood toward the online view at rate HybridLR. The bias
// is bounded, applied between retrains only, and reset to zero whenever
// a freshly trained model deploys — the bridge adapts the gap, the
// retrain owns the steady state.
//
// Second, a streaming PSI drift detector (internal/drift) compares the
// live feature distribution against a snapshot taken when the serving
// model's training round launched. When any monitored feature's PSI
// crosses DriftThreshold and enough of the current window has
// accumulated, the window retrains early instead of waiting for the
// boundary. A round still in flight (DeployLag > 0, before its deploy
// point) deploys first: the trigger is never suppressed, and there is
// one training round at a time.
package core

import (
	"math/bits"

	"lfo/internal/features"
	"lfo/internal/obs"
	"lfo/internal/trace"
)

// hybridBiasClamp bounds the per-class bias magnitude. Likelihoods live
// in [0,1] and the default cutoff is 0.5, so ±0.35 lets the bridge
// overturn a moderately confident model but never a certain one.
const hybridBiasClamp = 0.35

// numSizeClasses is the per-class bias table size: log2 size buckets
// (bits.Len64 of a positive int64 is at most 63, plus the zero bucket).
const numSizeClasses = 64

// driftFeatures is how many feature columns the detector monitors:
// size, cost, and the three most recent request gaps — the
// request-intrinsic head of the feature row. Free bytes is deliberately
// excluded: it is cache state, a single autocorrelated value whose
// histogram is a spike that wanders bins between windows and reads as
// PSI > 1 even on stationary traffic. The deeper gap columns decay into
// Missing and add no signal.
const driftFeatures = 5

// driftFeatureNames labels the monitored columns in metric names.
var driftFeatureNames = [driftFeatures]string{"size", "cost", "gap0", "gap1", "gap2"}

// HybridBiasBounds buckets the per-request applied bias for the obs
// histogram, in micro-units (bias 0.35 → 350000), symmetric around 0.
var HybridBiasBounds = []int64{
	-350000, -200000, -100000, -50000, -20000, -5000,
	0, 5000, 20000, 50000, 100000, 200000, 350000,
}

// driftMicro converts a PSI score to the micro-unit int64 the gauges use.
func driftMicro(s float64) int64 { return int64(s * 1e6) }

// sizeClass maps an object size to its log2 bias bucket.
func sizeClass(size int64) int {
	if size <= 0 {
		return 0
	}
	return bits.Len64(uint64(size))
}

// hybridMetrics bundles the bridge's obs handles (all nil-safe no-ops
// when the registry is nil).
type hybridMetrics struct {
	earlyRetrains   *obs.Counter
	bias            *obs.Histogram
	driftMax        *obs.Gauge
	driftPerFeature [driftFeatures]*obs.Gauge
}

func newHybridMetrics(r *obs.Registry) hybridMetrics {
	m := hybridMetrics{
		earlyRetrains: r.Counter("core_early_retrains_total"),
		bias:          r.Histogram("core_hybrid_bias_micro", HybridBiasBounds),
		driftMax:      r.Gauge("core_drift_psi_max_micro"),
	}
	for i, name := range driftFeatureNames {
		m.driftPerFeature[i] = r.Gauge("core_drift_psi_" + name + "_micro")
	}
	return m
}

// hybridScore advances the shadow learner one request and returns the
// effective admission likelihood: the model's raw score plus the
// per-size-class bias. The bias is an exponential moving average of the
// class's disagreement (shadow allocation minus raw score) at rate
// HybridLR — it tracks the mean disagreement rather than integrating
// it, so a persistent mild mismatch settles at a mild bias instead of
// railing to the clamp. During bootstrap (no model) the shadow still
// learns but the raw score passes through untouched — there is nothing
// to modulate yet.
func (p *LFO) hybridScore(r trace.Request, raw float64) float64 {
	y := p.shadow.Update(r)
	if p.model == nil {
		return raw
	}
	c := sizeClass(r.Size)
	b := p.bias[c] + p.cfg.HybridLR*(y-raw-p.bias[c])
	if b > hybridBiasClamp {
		b = hybridBiasClamp
	} else if b < -hybridBiasClamp {
		b = -hybridBiasClamp
	}
	p.bias[c] = b
	p.hm.bias.Observe(int64(b * 1e6))
	eff := raw + b
	if eff < 0 {
		eff = 0
	} else if eff > 1 {
		eff = 1
	}
	return eff
}

// resetBias zeroes the per-class bias table; called when a freshly
// trained model deploys, handing the adapted state back to the model.
func (p *LFO) resetBias() {
	if p.bias == nil {
		return
	}
	for i := range p.bias {
		p.bias[i] = 0
	}
}

// driftCheck scores the live feature distribution against the training
// snapshot and fires the early-retrain trigger when it has shifted. The
// trigger needs a deployed model (bootstrap has nothing to re-fit), a
// Ready detector, and at least a quarter window of rows to train on.
func (p *LFO) driftCheck() {
	// The first reference is the bootstrap window, recorded by an empty
	// tracker against a draining cache: its gap-missingness and
	// free-bytes distributions are cold-start artifacts that read as
	// drift against any warm window. Detection arms from the second
	// reference on, when both sides of the comparison are warm.
	if p.model == nil || p.driftRefs < 2 || !p.det.Ready() {
		return
	}
	_, score := p.det.MaxScore()
	p.hm.driftMax.Set(driftMicro(score))
	for f, s := range p.det.Scores() {
		p.hm.driftPerFeature[f].Set(driftMicro(s))
	}
	if score <= p.cfg.DriftThreshold || len(p.winReqs) < p.cfg.WindowSize/4 {
		return
	}
	p.earlyRetrains++
	p.hm.earlyRetrains.Inc()
	// An early retrain closes the window at its current length: it is a
	// completed (short) window for lag accounting, then trains exactly
	// like a boundary retrain.
	p.closeWindow()
}

// EarlyRetrains returns how many training rounds the drift trigger
// started ahead of the window boundary.
func (p *LFO) EarlyRetrains() int { return p.earlyRetrains }

// observeDrift copies the monitored columns out of a feature row (by
// their named indices, so a feature-layout change cannot silently point
// the detector at the wrong columns) and counts them into the live
// histogram.
//
//lfo:hotpath
func (p *LFO) observeDrift(row []float64) {
	p.driftRow[0] = row[features.FeatSize]
	p.driftRow[1] = row[features.FeatCost]
	p.driftRow[2] = row[features.FeatGap0]
	p.driftRow[3] = row[features.FeatGap0+1]
	p.driftRow[4] = row[features.FeatGap0+2]
	p.det.Observe(p.driftRow[:])
}
