// Package sim provides the trace-driven cache simulation engine: a Policy
// interface implemented by every caching system in this repository, a
// byte-accurate cache store helper, and hit-ratio metrics (BHR, OHR,
// miss cost) with optional warmup exclusion and per-window series.
package sim

import (
	"fmt"

	"lfo/internal/obs"
	"lfo/internal/trace"
)

// Policy is a complete caching system: admission plus eviction. Request
// processes one request against the cache and reports whether it was a
// hit. Implementations own all internal state and must be deterministic
// given their construction parameters.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Request serves a request, returning true on a cache hit.
	Request(r trace.Request) bool
}

// Admitter is the admission half of a cache, the one declaration every
// cache that takes a pluggable admission decision shares (tiered's level
// one, evict.Cache, fleet.Router and its shard fallbacks). Learned models
// and heuristics such as policy.SecondHitCensor both implement it.
type Admitter interface {
	// Admit returns whether to cache the object and the likelihood (0..1)
	// behind the decision, which placement and ranking may use. Called
	// only on misses, before Observe.
	Admit(r trace.Request, freeBytes int64) (bool, float64)
	// Observe is called for every request (hit or miss) so stateful
	// admitters can maintain request history.
	Observe(r trace.Request)
}

// CutoffAdmitAll is the admission-cutoff sentinel for an effective cutoff
// of exactly 0 — every request the model scores is admitted. A literal 0
// is Go's zero value and therefore means "unset" (defaulting to 0.5),
// which would otherwise make the admit-all ablation unconfigurable.
const CutoffAdmitAll = -1

// ResolveCutoff maps a configured admission cutoff to the threshold a
// likelihood is compared against: 0 means 0.5, CutoffAdmitAll means
// exactly 0, and any other value must lie in [0, 1].
func ResolveCutoff(cutoff float64) (float64, error) {
	switch {
	case cutoff == 0:
		return 0.5, nil
	case cutoff == CutoffAdmitAll:
		return 0, nil
	case !(cutoff >= 0 && cutoff <= 1): // also rejects NaN
		return 0, fmt.Errorf("cutoff must be in [0,1] (or the CutoffAdmitAll sentinel), got %v", cutoff)
	}
	return cutoff, nil
}

// Metrics accumulates simulation results.
type Metrics struct {
	Policy   string
	Requests int
	Hits     int
	ReqBytes int64
	HitBytes int64
	MissCost float64
	// Windows holds per-window metrics when Options.WindowSize > 0.
	Windows []WindowMetrics
}

// WindowMetrics is one window of a windowed metrics series.
type WindowMetrics struct {
	// Start is the request index where the window begins.
	Start    int
	Requests int
	Hits     int
	ReqBytes int64
	HitBytes int64
	// MissCost is the summed Cost of the window's missed requests (the
	// per-window share of Metrics.MissCost).
	MissCost float64
}

// BHR returns the byte hit ratio.
func (m *Metrics) BHR() float64 {
	if m.ReqBytes == 0 {
		return 0
	}
	return float64(m.HitBytes) / float64(m.ReqBytes)
}

// OHR returns the object hit ratio.
func (m *Metrics) OHR() float64 {
	if m.Requests == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Requests)
}

// BHR returns the window's byte hit ratio.
func (w *WindowMetrics) BHR() float64 {
	if w.ReqBytes == 0 {
		return 0
	}
	return float64(w.HitBytes) / float64(w.ReqBytes)
}

// OHR returns the window's object hit ratio.
func (w *WindowMetrics) OHR() float64 {
	if w.Requests == 0 {
		return 0
	}
	return float64(w.Hits) / float64(w.Requests)
}

// Options tunes a simulation run.
type Options struct {
	// Warmup excludes the first Warmup requests from the metrics (the
	// policies still see them).
	Warmup int
	// WindowSize, when positive, also records metrics per window of
	// WindowSize requests (warmup requests are never windowed).
	WindowSize int
	// Obs, when set, accumulates run totals (sim_runs_total,
	// sim_requests_total, sim_hits_total, sim_req_bytes_total,
	// sim_hit_bytes_total) after each Run. Recording happens once per
	// run, off the request loop, and never affects results.
	Obs *obs.Registry
}

// Run replays the trace against the policy and returns metrics.
func Run(tr *trace.Trace, p Policy, opts Options) *Metrics {
	m := &Metrics{Policy: p.Name()}
	if opts.WindowSize > 0 {
		if n := len(tr.Requests) - opts.Warmup; n > 0 {
			m.Windows = make([]WindowMetrics, 0, (n+opts.WindowSize-1)/opts.WindowSize)
		}
	}
	var cur *WindowMetrics
	for i, r := range tr.Requests {
		hit := p.Request(r)
		if i < opts.Warmup {
			continue
		}
		m.Requests++
		m.ReqBytes += r.Size
		if hit {
			m.Hits++
			m.HitBytes += r.Size
		} else {
			m.MissCost += r.Cost
		}
		if opts.WindowSize > 0 {
			if cur == nil || cur.Requests >= opts.WindowSize {
				m.Windows = append(m.Windows, WindowMetrics{Start: i})
				cur = &m.Windows[len(m.Windows)-1]
			}
			cur.Requests++
			cur.ReqBytes += r.Size
			if hit {
				cur.Hits++
				cur.HitBytes += r.Size
			} else {
				cur.MissCost += r.Cost
			}
		}
	}
	if opts.Obs != nil {
		opts.Obs.Counter("sim_runs_total").Inc()
		opts.Obs.Counter("sim_requests_total").Add(int64(m.Requests))
		opts.Obs.Counter("sim_hits_total").Add(int64(m.Hits))
		opts.Obs.Counter("sim_req_bytes_total").Add(m.ReqBytes)
		opts.Obs.Counter("sim_hit_bytes_total").Add(m.HitBytes)
	}
	return m
}

// String renders a one-line summary.
func (m *Metrics) String() string {
	return fmt.Sprintf("%s: BHR=%.4f OHR=%.4f hits=%d/%d", m.Policy, m.BHR(), m.OHR(), m.Hits, m.Requests)
}
