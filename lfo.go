// Package lfo is the public API of the LFO repository — a Go
// implementation of "Towards Lightweight and Robust Machine Learning for
// CDN Caching" (Berger, HotNets-XVII, 2018).
//
// LFO (Learning From OPT) reduces cache admission to supervised learning:
// it computes the offline-optimal caching decisions (OPT) for a sliding
// window of requests via a min-cost-flow model, trains a boosted decision
// tree to imitate OPT from online features, and uses the model as the
// cache's admission and eviction-ranking policy for the next window.
//
// Quick start:
//
//	tr, _ := lfo.GenerateCDNMix(100000, 1)
//	cache, _ := lfo.NewCache(lfo.CacheConfig{CacheSize: 64 << 20})
//	m := lfo.Simulate(tr, cache, lfo.SimOptions{Warmup: 25000})
//	fmt.Printf("byte hit ratio: %.3f\n", m.BHR())
//
// The façade re-exports the pieces a downstream user needs: trace model
// and I/O, the synthetic CDN workload generator, the baseline policy zoo,
// the simulator, OPT computation, and the TCP prediction service. The
// full implementation lives under internal/; see DESIGN.md for the map.
package lfo

import (
	"cmp"
	"io"
	"net"

	"lfo/internal/core"
	"lfo/internal/features"
	"lfo/internal/fleet"
	"lfo/internal/gbdt"
	"lfo/internal/gen"
	"lfo/internal/mrc"
	"lfo/internal/obs"
	"lfo/internal/opt"
	"lfo/internal/policy"
	"lfo/internal/server"
	"lfo/internal/sim"
	"lfo/internal/tiered"
	"lfo/internal/trace"
)

// Trace model (see internal/trace).
type (
	// Request is a single trace request.
	Request = trace.Request
	// ObjectID identifies a cached object.
	ObjectID = trace.ObjectID
	// Trace is an ordered request sequence.
	Trace = trace.Trace
	// Objective selects how retrieval costs are assigned (BHR/OHR/cost).
	Objective = trace.Objective
)

// Cost objectives.
const (
	ObjectiveBHR  = trace.ObjectiveBHR
	ObjectiveOHR  = trace.ObjectiveOHR
	ObjectiveCost = trace.ObjectiveCost
)

// ReadTrace parses a webcachesim-style text trace ("time id size [cost]").
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// WriteTrace writes a trace in the text format understood by ReadTrace.
func WriteTrace(w io.Writer, t *Trace) error { return trace.Write(w, t) }

// ReadTraceFile reads a text trace from a file.
func ReadTraceFile(path string) (*Trace, error) { return trace.ReadFile(path) }

// WriteTraceFile writes a text trace to a file.
func WriteTraceFile(path string, t *Trace) error { return trace.WriteFile(path, t) }

// Workload generation (see internal/gen). The generator substitutes for
// the paper's proprietary production trace; see DESIGN.md.

// GenConfig parameterizes the synthetic CDN workload generator.
type GenConfig = gen.Config

// Workload building blocks for custom GenConfigs.
type (
	// GenClass is one content class (popularity skew, sizes, weight).
	GenClass = gen.ContentClass
	// DriftEvent changes the traffic mix mid-trace.
	DriftEvent = gen.DriftEvent
	// SizeModel draws object sizes.
	SizeModel = gen.SizeModel
	// LogNormalSize models web-object bodies.
	LogNormalSize = gen.LogNormalSize
	// ParetoSize models heavy-tailed large objects.
	ParetoSize = gen.ParetoSize
	// FixedSize yields constant sizes.
	FixedSize = gen.FixedSize
	// UniformSize yields uniform sizes.
	UniformSize = gen.UniformSize
)

// GenerateTrace produces a synthetic trace from a full generator config.
func GenerateTrace(cfg GenConfig) (*Trace, error) { return gen.Generate(cfg) }

// GenerateCDNMix produces the standard mixed-content CDN workload
// (web + photo + video + software downloads, with mid-trace drift).
func GenerateCDNMix(requests int, seed int64) (*Trace, error) {
	return gen.Generate(gen.CDNMix(requests, seed))
}

// GenerateWebMix produces a single-class web workload.
func GenerateWebMix(requests int, seed int64) (*Trace, error) {
	return gen.Generate(gen.WebMix(requests, seed))
}

// Simulation (see internal/sim).
type (
	// Policy is a complete caching system (admission + eviction).
	Policy = sim.Policy
	// Metrics holds simulation results (BHR, OHR, miss cost).
	Metrics = sim.Metrics
	// SimOptions tunes warmup and windowed metrics.
	SimOptions = sim.Options
)

// Simulate replays a trace against a policy.
func Simulate(tr *Trace, p Policy, opts SimOptions) *Metrics {
	return sim.Run(tr, p, opts)
}

// Baseline policies (see internal/policy).

// NewPolicy constructs a baseline policy by name; see PolicyNames.
func NewPolicy(name string, capacity, seed int64) (Policy, error) {
	return policy.New(name, capacity, seed)
}

// PolicyNames lists the available baseline policy names.
func PolicyNames() []string { return policy.Names() }

// The LFO cache (see internal/core).
type (
	// CacheConfig parameterizes an LFO cache.
	CacheConfig = core.Config
	// Cache is the online-learning LFO cache; it implements Policy.
	Cache = core.LFO
)

// CutoffAdmitAll is the CacheConfig.Cutoff sentinel for an effective
// admission cutoff of exactly 0 (a literal 0 means "unset" → 0.5).
const CutoffAdmitAll = core.CutoffAdmitAll

// NewCache returns an LFO cache. Until its first window completes it
// bootstraps as admit-all LRU.
func NewCache(cfg CacheConfig) (*Cache, error) { return core.New(cfg) }

// Observability (see internal/obs).
type (
	// MetricsRegistry collects atomic counters, gauges and latency
	// histograms from the cache, simulator, OPT solver and prediction
	// server. Pass one via CacheConfig.Obs, SimOptions.Obs,
	// OPTConfig.Obs or PredictionServer.Obs; recording is lock- and
	// allocation-free and a nil registry disables it entirely.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time view of a MetricsRegistry.
	MetricsSnapshot = obs.Snapshot
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ServeDebug binds addr with an HTTP listener serving /metrics (flat
// "name value" text), /debug/vars (expvar) and /debug/pprof/ for the
// registry. It returns the bound address and a stop function.
func ServeDebug(addr string, r *MetricsRegistry) (net.Addr, func() error, error) {
	return obs.ServeDebug(addr, r)
}

// OPT computation (see internal/opt).
type (
	// OPTConfig parameterizes the offline-optimal computation.
	OPTConfig = opt.Config
	// OPTResult holds OPT's per-request decisions and hit ratios.
	OPTResult = opt.Result
)

// OPT algorithm selectors.
const (
	// OPTFlow, the default, solves the window exactly in one sweep when
	// every interval costs the same per byte, and greedily otherwise (see
	// opt.AlgoFlow).
	OPTFlow = opt.AlgoFlow
	// OPTGreedy labels the window in one feasible rank-order pass.
	OPTGreedy = opt.AlgoGreedy
)

// ComputeOPT derives the offline-optimal caching decisions for a trace.
func ComputeOPT(tr *Trace, cfg OPTConfig) (*OPTResult, error) {
	return opt.Compute(tr, cfg)
}

// Learned models (see internal/gbdt).
type (
	// Model is a trained boosted-tree admission classifier.
	Model = gbdt.Model
	// ModelParams configures training.
	ModelParams = gbdt.Params
)

// DefaultModelParams returns LightGBM-style defaults with the paper's 30
// boosting iterations.
func DefaultModelParams() ModelParams { return gbdt.DefaultParams() }

// TrainWindowModel trains an admission model on one trace window, the
// offline equivalent of LFO's Figure 2 pipeline. It returns the model.
func TrainWindowModel(tr *Trace, cfg CacheConfig) (*Model, error) {
	m, _, err := core.TrainOnWindow(tr, cfg)
	return m, err
}

// LoadModel deserializes a model written by Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return gbdt.Load(r) }

// Feature tracking (see internal/features).

// FeatureDim is the width of LFO's feature vectors: size, cost, free
// bytes, and the last 50 request gaps (§2.2 of the paper).
const FeatureDim = features.Dim

// FeatureTracker maintains the per-object request history behind LFO's
// online features. Use it to build feature rows for Model.Predict; a
// prediction server keeps one per connection from the request tuples it
// is sent.
type FeatureTracker = features.Tracker

// NewFeatureTracker returns a tracker bounded to maxObjects tracked
// objects (0 = unbounded).
func NewFeatureTracker(maxObjects int) *FeatureTracker {
	return features.NewTracker(maxObjects)
}

// FeatureNames returns human-readable names for each feature position.
func FeatureNames() []string { return features.Names() }

// Miss-ratio curves (see internal/mrc) — the cache-provisioning view §5
// of the paper points to.
type (
	// MRC is an exact LRU hit-ratio-vs-cache-size curve.
	MRC = mrc.Curve
	// MRCPoint is one (size, hit ratio) sample.
	MRCPoint = mrc.Point
)

// ComputeMRC builds the exact LRU miss-ratio curve for a trace in one
// O(n log n) pass.
func ComputeMRC(tr *Trace) *MRC { return mrc.ComputeLRU(tr) }

// ComputeOPTCurve samples the offline-optimal hit ratios at each size.
func ComputeOPTCurve(tr *Trace, sizes []int64, cfg OPTConfig) ([]MRCPoint, error) {
	return mrc.ComputeOPT(tr, sizes, cfg)
}

// LogCacheSizes returns k cache sizes geometrically spaced in [lo, hi].
func LogCacheSizes(lo, hi int64, k int) []int64 { return mrc.LogSizes(lo, hi, k) }

// Tiered caching (see internal/tiered) — §5's hierarchical model.
type (
	// Tier is one storage level of a TieredCache.
	Tier = tiered.Tier
	// TieredCache is a RAM/SSD/HDD-style hierarchical cache.
	TieredCache = tiered.TieredCache
	// Admitter is the level-one cache-at-all decision: the admission
	// interface every pluggable admitter in the repository implements.
	Admitter = sim.Admitter
	// Placer is the level-two tier-placement decision.
	Placer = tiered.Placer
)

// NewTieredCache builds a hierarchical cache; see tiered.New.
func NewTieredCache(tiers []Tier, admitter Admitter, placer Placer) (*TieredCache, error) {
	return tiered.New(tiers, admitter, placer)
}

// NewModelAdmitter wraps a trained LFO model as a tiered-cache admitter.
// cutoff reads like CacheConfig.Cutoff: 0 means 0.5, CutoffAdmitAll means
// exactly 0; any other value outside [0, 1] panics.
func NewModelAdmitter(m *Model, cutoff float64) Admitter {
	return tiered.NewModelAdmitter(m, cutoff)
}

// PlaceByLikelihood places hot predictions in tier 0, lukewarm in tier 1,
// the rest in tier 2.
func PlaceByLikelihood(hot, warm float64) Placer { return tiered.PlaceByLikelihood(hot, warm) }

// PlaceBySize places objects into the first tier whose bound fits them.
func PlaceBySize(bounds ...int64) Placer { return tiered.PlaceBySize(bounds...) }

// Prediction service (see internal/server).
type (
	// PredictionServer serves admission likelihoods over TCP; its client
	// is a FleetRouter with one address.
	PredictionServer = server.Server
	// DegradeEvent describes one serving-path degradation (timeout,
	// limit rejection, accept error, drain force-close); see
	// PredictionServer.OnDegrade.
	DegradeEvent = server.DegradeEvent
	// AdmitRequest is one raw request tuple, what FleetRouter.Enqueue
	// sends (the server tracks feature history per connection).
	AdmitRequest = server.AdmitRequest
)

// NewPredictionServer returns a TCP prediction server for the model.
func NewPredictionServer(m *Model, workers int) *PredictionServer {
	return server.New(m, workers)
}

// SecondHitCensor admits objects on their second request within recent
// (bounded) history — the degraded-mode heuristic a FleetRouter answers
// a down shard's key range with (see internal/policy).
type SecondHitCensor = policy.SecondHitCensor

// NewSecondHitCensor returns a bounded second-hit admission heuristic
// (maxIDs 0 = default bound, negative = unbounded).
func NewSecondHitCensor(maxIDs int) *SecondHitCensor { return policy.NewSecondHitCensor(maxIDs) }

// Fleet serving (see internal/fleet): a consistent-hash ring shards
// objects across N prediction servers and a client-side router coalesces
// admission rows into per-shard batches pipelined over multiplexed
// connections, with an I/O deadline and per-shard failover to a local
// heuristic — the cache answers even when the model path is late or down.
type (
	// FleetConfig parameterizes a FleetRouter (shard addresses, batch
	// size, pipeline window, probe interval, admission cutoff).
	FleetConfig = fleet.Config
	// FleetRouter batches and routes admission rows to a shard fleet and
	// is the remote Admitter: one shard address makes it the
	// single-server case.
	FleetRouter = fleet.Router
	// FleetRing is the consistent-hash ring mapping objects to shards.
	FleetRing = fleet.Ring
)

// NewFleetRouter dials every shard in cfg.Addrs and returns a router.
// Unreachable shards start in failed-over state and are re-admitted by
// the probe cycle; only a fully unreachable fleet is an error.
func NewFleetRouter(cfg FleetConfig) (*FleetRouter, error) { return fleet.NewRouter(cfg) }

// NewFleetRing returns a consistent-hash ring over shards 0..shards-1
// with the given virtual-node count per shard (0 = the FleetRouter's
// default); it panics on a count that is not positive.
func NewFleetRing(shards, replicas int) *FleetRing {
	return fleet.NewRing(shards, cmp.Or(replicas, fleet.DefaultReplicas))
}
