// Package obs is the repository's observability layer: a standard-library
// metrics registry (atomic counters, gauges, and fixed-boundary latency
// histograms) plus the HTTP surfaces that expose it (obs/http.go).
//
// The package exists to make the paper's §3 robustness argument —
// "training tasks [must] not interfere with the request traffic" —
// verifiable at runtime: retrain stage durations, OPT solver mix, server
// request rates, and async window drops all record here and are served by
// cmd/predserve's -debug.addr listener or printed after a run via
// Registry.Snapshot.
//
// Design constraints, in priority order:
//
//  1. Zero cost when unused. Every handle type (Counter, Gauge,
//     Histogram) and the Registry itself are nil-receiver-safe no-ops, so
//     instrumented code paths need no conditional wiring: resolving a
//     metric from a nil *Registry yields a nil handle whose methods are a
//     single branch. Hot paths therefore carry instrumentation
//     unconditionally.
//  2. No interference with the request path when used: recording is an
//     atomic add — no locks, no allocation. The registry's mutex guards
//     only metric registration (a construction-time, cold-path event).
//  3. No interference with determinism: metrics observe the pipeline and
//     never feed back into it, and count-valued metrics are themselves
//     deterministic for a deterministic run (durations, of course, are
//     not). Snapshots render in sorted name order so output diffs
//     cleanly.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter discards all operations.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are a caller bug but are not checked on the
// hot path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use;
// a nil *Gauge discards all operations.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-boundary histogram of int64 observations
// (conventionally nanoseconds for latency). Bucket i counts observations
// <= Bounds[i]; the final implicit bucket counts the rest. Observing is an
// atomic add per bucket plus count and sum; boundaries are fixed at
// registration, so snapshots from identical runs are structurally
// identical. A nil *Histogram discards all operations.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count   atomic.Int64
	sum     atomic.Int64
}

// LatencyBounds is the default nanosecond boundary set for latency
// histograms: decades from 1µs to 10s.
var LatencyBounds = []int64{
	1_000,          // 1µs
	10_000,         // 10µs
	100_000,        // 100µs
	1_000_000,      // 1ms
	10_000_000,     // 10ms
	100_000_000,    // 100ms
	1_000_000_000,  // 1s
	10_000_000_000, // 10s
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Scope is a named timer scope: it measures the wall-clock span between
// Start and Stop into a latency histogram (the name is the histogram's
// registry name). Scopes are plain values — starting and stopping one
// does not allocate — and a Scope started from a nil histogram skips the
// clock reads entirely, keeping disabled instrumentation free.
type Scope struct {
	h     *Histogram
	start time.Time
}

// Start opens a timer scope recording into h on Stop.
func Start(h *Histogram) Scope {
	if h == nil {
		return Scope{}
	}
	return Scope{h: h, start: time.Now()}
}

// Stop closes the scope, recording the elapsed nanoseconds.
func (s Scope) Stop() {
	if s.h != nil {
		s.h.Observe(time.Since(s.start).Nanoseconds())
	}
}

// Registry is a named collection of metrics. Metric resolution
// (get-or-create by name) takes a mutex and is meant for construction
// time; the returned handles are lock-free. A nil *Registry resolves
// every name to a nil handle, so components accept an optional registry
// without branching at record sites.
//
// A Registry value is a *view* onto a shared metric store: Prefixed
// returns a view that prepends a fixed prefix to every resolved name
// while writing into the same store, so a multi-shard process can hand
// each shard a distinguishable namespace (shard0_server_..., ...) and
// still snapshot everything at once.
type Registry struct {
	prefix string
	s      *regState
}

// regState is the store shared by a registry and all its prefixed views.
type regState struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{s: &regState{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}}
}

// Prefixed returns a view of the registry that prepends prefix to every
// metric name it resolves. The view shares the underlying store: metrics
// registered through it appear in the parent's Snapshot (and /metrics)
// under the prefixed name. Prefixes nest. A nil registry returns nil.
func (r *Registry) Prefixed(prefix string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{prefix: r.prefix + prefix, s: r.s}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	c := r.s.counters[name]
	if c == nil {
		c = &Counter{}
		r.s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	g := r.s.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.s.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// boundaries on first use. Later calls return the existing histogram and
// ignore bounds; boundaries must be ascending.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	h := r.s.hists[name]
	if h == nil {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
			}
		}
		h = &Histogram{
			bounds:  append([]int64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
		r.s.hists[name] = h
	}
	return h
}

// Metric is one named scalar in a snapshot.
type Metric struct {
	Name  string
	Value int64
}

// HistogramSnapshot is one histogram's state in a snapshot.
type HistogramSnapshot struct {
	Name  string
	Count int64
	Sum   int64
	// Bounds are the bucket upper bounds; Counts has one extra entry for
	// the overflow bucket.
	Bounds []int64
	Counts []int64
}

// Snapshot is a point-in-time view of a registry, each slice sorted by
// name. Every value is read atomically, but the snapshot as a whole is
// not a consistent cut: metrics recorded while snapshotting may land in
// some values and not others.
type Snapshot struct {
	Counters   []Metric
	Gauges     []Metric
	Histograms []HistogramSnapshot
}

// Snapshot captures the registry's current state (zero Snapshot for nil).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	var s Snapshot
	for name, c := range r.s.counters {
		s.Counters = append(s.Counters, Metric{name, c.Value()})
	}
	for name, g := range r.s.gauges {
		s.Gauges = append(s.Gauges, Metric{name, g.Value()})
	}
	for name, h := range r.s.hists {
		hs := HistogramSnapshot{
			Name:   name,
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: h.bounds,
			Counts: make([]int64, len(h.buckets)),
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// flatten renders the snapshot as sorted (name, value) lines: scalars as
// themselves and each histogram as name_count, name_sum, and one
// name_le_<bound> line per bucket (name_le_inf for the overflow bucket).
func (s Snapshot) flatten() []Metric {
	out := make([]Metric, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms)*(3+8))
	out = append(out, s.Counters...)
	out = append(out, s.Gauges...)
	for _, h := range s.Histograms {
		out = append(out, Metric{h.Name + "_count", h.Count}, Metric{h.Name + "_sum", h.Sum})
		for i, c := range h.Counts {
			if i < len(h.Bounds) {
				out = append(out, Metric{fmt.Sprintf("%s_le_%d", h.Name, h.Bounds[i]), c})
			} else {
				out = append(out, Metric{h.Name + "_le_inf", c})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText writes the snapshot as flat "name value" lines in sorted name
// order — the /metrics wire format.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, m := range s.flatten() {
		if _, err := fmt.Fprintf(w, "%s %d\n", m.Name, m.Value); err != nil {
			return err
		}
	}
	return nil
}

// Vars renders the snapshot as a flat name→value map — the expvar
// (/debug/vars) representation. Values fit expvar's JSON encoding; int64
// values beyond float64's exact range are clamped by encoding/json's
// float conversion, which observability tolerates.
func (s Snapshot) Vars() map[string]int64 {
	out := make(map[string]int64)
	for _, m := range s.flatten() {
		out[m.Name] = m.Value
	}
	return out
}
