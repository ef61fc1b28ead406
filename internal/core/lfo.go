// Package core implements LFO (Learning From OPT), the paper's
// contribution: a caching policy that learns the offline-optimal admission
// decisions from online features.
//
// The online pipeline follows Figure 2 of the paper. While serving
// requests, LFO records each request's online feature vector (§2.2). When
// a window of WindowSize requests completes, LFO computes OPT's decisions
// for the window (§2.1, package opt), trains a boosted-tree classifier
// mapping features to decisions (§2.3, package gbdt), and deploys the new
// model for the next window (§2.4): admit when the predicted likelihood is
// at least Cutoff, rank resident objects by predicted likelihood, and
// evict the minimum. Re-evaluating likelihoods on hits means a cache hit
// can demote — or even evict — the hit object, mirroring OPT.
//
// There is one such pipeline. The offline entry points (offline.go:
// Extract, TrainOnWindow, Evaluate — what the accuracy figures and
// predserve's -train-* use) record their rows by serving the trace to an
// LFO whose window never closes and fit through the same function the
// online handoff calls, so a feature row or a label means the same thing
// wherever it is produced.
package core

import (
	"fmt"
	"slices"
	"sort"

	"lfo/internal/drift"
	"lfo/internal/evict"
	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/obs"
	"lfo/internal/opt"
	"lfo/internal/par"
	"lfo/internal/policy/ogd"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// Config parameterizes an LFO cache.
type Config struct {
	// CacheSize is the capacity in bytes. Required.
	CacheSize int64
	// WindowSize is the training window length in requests (Figure 2's
	// W). Zero means 50000.
	WindowSize int
	// Cutoff is the admission likelihood threshold (§2.4). Zero means
	// 0.5; use CutoffAdmitAll for an effective threshold of exactly 0
	// (admit everything the model scores). Other values must lie in
	// [0, 1] or New returns an error.
	Cutoff float64
	// OPT configures the offline-optimal computation for training
	// labels. OPT.CacheSize is overridden with CacheSize.
	OPT opt.Config
	// GBDT configures the learner; zero value means gbdt.DefaultParams.
	GBDT gbdt.Params
	// MaxTrackedObjects bounds the feature tracker's sparse state
	// (0 = unbounded).
	MaxTrackedObjects int
	// Workers caps the goroutines the stages of a window handoff may use
	// inside themselves: GBDT training, batched prediction and resident
	// feature extraction (OPT labeling is one sequential pass). The stages run one
	// after the other. 0 means all available cores, 1 reproduces the
	// fully sequential pipeline. Every stage reduces in a fixed order, so
	// results are byte-identical for any value.
	Workers int
	// DisableEvictOnHit keeps hit objects resident even when their
	// re-evaluated likelihood falls below Cutoff. By default LFO evicts
	// them immediately (the paper's "a cache hit [may lead] to the
	// eviction of the hit object", §2.4); disabling is for ablations.
	DisableEvictOnHit bool
	// Eviction names the internal/evict strategy that picks victims, one
	// of evict.Kinds. "" or "rank" is §2.4's full likelihood-ranked queue
	// (re-scored on every retrain); "learned" ranks a sampled candidate
	// set with a second GBDT trained from the same OPT window labels as
	// the admission model (deployed atomically alongside it each
	// retrain); the others are the heuristics of the baseline column.
	Eviction string
	// Seed seeds the learned evictor's candidate sampler. Runs are
	// byte-reproducible for a fixed seed.
	Seed int64
	// HybridLR, when positive, enables the online-learning bridge (see
	// hybrid.go) at that bias learning rate: a shadow OGD learner runs
	// beside the model and a per-size-class bias pulls admission
	// likelihoods toward the online learner's view between retrains.
	HybridLR float64
	// OGDEta overrides the shadow learner's gradient step scale
	// (default ogd.DefaultEta). Only meaningful with HybridLR > 0.
	OGDEta float64
	// DriftThreshold, when positive, enables the feature-drift detector
	// and its early-retrain trigger: when any monitored feature's PSI
	// against the training-window snapshot exceeds the threshold, the
	// current window retrains early. drift.DefaultThreshold (0.25) is
	// the classic "population changed" break.
	DriftThreshold float64
	// DriftCheckEvery is how often (in requests) the drift statistic is
	// evaluated. Zero means 1000.
	DriftCheckEvery int
	// DeployLag is how many requests of the next window are served on the
	// outgoing model while a window's round trains in the background —
	// the production concern §3 raises ("training tasks [must] not
	// interfere with the request traffic"). The round deploys right after
	// request DeployLag of the next window, waiting there if it has not
	// finished, so results are byte-identical for any value and across
	// reruns. 0 (the default) deploys at the boundary itself; values must
	// lie in [0, WindowSize). Callers must Close the cache to deploy a
	// round still in flight when the trace ends.
	DeployLag int
	// InitialModel warm-starts the cache with a previously trained model
	// (e.g. gbdt.Load of a persisted model), skipping the admit-all
	// bootstrap phase.
	InitialModel *gbdt.Model
	// Obs, when set, records the cache's runtime metrics: request/hit
	// counts, retrain stage durations (OPT labeling, GBDT training,
	// resident rescoring, the deploy point's wait), deployed-window lag,
	// and each handoff's report on its window. Metrics observe the
	// pipeline and never feed back into decisions, so determinism is
	// unaffected; when nil, recording is a no-op (see internal/obs).
	Obs *obs.Registry
}

// HarnessOPT is the labeler every harness in the repository configures LFO
// with — lfobench's figures, lfosim -policy lfo, predserve's -train-* — so
// the tables, the simulator and a served model agree on what a label is:
// §2.1's ranking cut at the top half of the intervals, then the sweep
// solving a uniform-cost window whole and the greedy labelling any other.
var HarnessOPT = opt.Config{Algorithm: opt.AlgoFlow, RankFraction: 0.5}

// CutoffAdmitAll is the Config.Cutoff sentinel for an effective cutoff of
// exactly 0 (see sim.ResolveCutoff, which New applies).
const CutoffAdmitAll = sim.CutoffAdmitAll

func (c Config) withDefaults() Config {
	if c.WindowSize == 0 {
		c.WindowSize = 50000
	}
	if c.Eviction == "" {
		c.Eviction = "rank"
	}
	if c.GBDT.NumIterations == 0 {
		c.GBDT = gbdt.DefaultParams()
	}
	if c.OGDEta == 0 {
		c.OGDEta = ogd.DefaultEta
	}
	if c.DriftCheckEvery == 0 {
		c.DriftCheckEvery = 1000
	}
	if c.GBDT.Workers == 0 {
		c.GBDT.Workers = c.Workers
	}
	if c.OPT.Obs == nil {
		c.OPT.Obs = c.Obs
	}
	c.OPT.CacheSize = c.CacheSize
	return c
}

// LFO is the online learning cache. It implements sim.Policy.
type LFO struct {
	cfg     Config
	name    string
	res     *evict.Residents // the store, cfg.Eviction's evictor, the evict loop
	tracker *features.Tracker
	model   *gbdt.Model

	// Window recording, double-buffered: the current window records into
	// winReqs/winFeats while a round in flight owns the spare pair, which
	// the request path does not touch until the round has landed.
	winReqs    []trace.Request
	winFeats   []float64 // flat rows, features.Dim wide
	spareReqs  []trace.Request
	spareFeats []float64
	windows    int

	clock int64 // request counter (bootstrap LRU rank)
	now   int64 // last request's trace time (feature time base)

	// round receives the result of the training round in flight; nil when
	// none is. At most one round is ever in flight.
	round chan trainResult

	// completedWindows counts window boundaries crossed; its gap against
	// the deployed count p.windows is the window lag gauge.
	completedWindows int

	// Online-learning bridge state (hybrid.go): the shadow OGD learner
	// and per-size-class bias (nil unless cfg.HybridLR > 0), the drift
	// detector and its row buffer (nil unless cfg.DriftThreshold > 0),
	// and the early-retrain count.
	shadow        *ogd.Learner
	bias          []float64
	det           *drift.Detector
	driftRow      [driftFeatures]float64
	driftRefs     int // SetReference count; the trigger arms at 2
	earlyRetrains int
	hm            hybridMetrics

	m coreMetrics // nil-safe handles; zero cost when cfg.Obs is nil
}

// trainResult is one finished training round: the admission model and the
// eviction ranker (nil unless Eviction == "learned").
type trainResult struct {
	model      *gbdt.Model
	evictModel *gbdt.Model
}

// coreMetrics bundles the LFO hot-path metric handles, resolved once at
// construction. All handles are nil (single-branch no-ops) when the
// registry is nil.
type coreMetrics struct {
	requests     *obs.Counter
	hits         *obs.Counter
	retrains     *obs.Counter
	windowLag    *obs.Gauge
	optNS        *obs.Histogram
	trainNS      *obs.Histogram
	rescoreNS    *obs.Histogram
	evictTrainNS *obs.Histogram
	deployWaitNS *obs.Histogram

	// Refreshed when a window closes, never per request: what the feature
	// tracker and the cache hold, and the handoff's report on the window
	// just labelled: its rows, OPT's admit share, the new model's agreement.
	trackedObjects    *obs.Gauge
	gapRings          *obs.Gauge
	trackerBytes      *obs.Gauge
	residentBytes     *obs.Gauge
	windowRequests    *obs.Gauge
	labelPositivePPM  *obs.Gauge
	trainAgreementPPM *obs.Gauge
}

func newCoreMetrics(r *obs.Registry) coreMetrics {
	return coreMetrics{
		requests:     r.Counter("core_requests_total"),
		hits:         r.Counter("core_hits_total"),
		retrains:     r.Counter("core_retrains_total"),
		windowLag:    r.Gauge("core_window_lag"),
		optNS:        r.Histogram("core_retrain_opt_ns", obs.LatencyBounds),
		trainNS:      r.Histogram("core_retrain_train_ns", obs.LatencyBounds),
		rescoreNS:    r.Histogram("core_retrain_rescore_ns", obs.LatencyBounds),
		evictTrainNS: r.Histogram("core_retrain_evict_train_ns", obs.LatencyBounds),
		deployWaitNS: r.Histogram("core_deploy_wait_ns", obs.LatencyBounds),

		trackedObjects:    r.Gauge("core_tracked_objects"),
		gapRings:          r.Gauge("core_gap_rings"),
		trackerBytes:      r.Gauge("core_tracker_bytes"),
		residentBytes:     r.Gauge("core_resident_bytes"),
		windowRequests:    r.Gauge("core_window_requests"),
		labelPositivePPM:  r.Gauge("core_label_positive_ppm"),
		trainAgreementPPM: r.Gauge("core_train_agreement_ppm"),
	}
}

// updateLag refreshes the deployed-window lag gauge: completed window
// boundaries whose round has not deployed yet.
func (p *LFO) updateLag() {
	p.m.windowLag.Set(int64(p.completedWindows - p.windows))
}

// New returns an LFO cache. Until the first window completes, LFO runs a
// bootstrap policy: admit everything, evict least-recently-used.
func New(cfg Config) (*LFO, error) {
	cfg = cfg.withDefaults()
	if cfg.CacheSize <= 0 {
		return nil, fmt.Errorf("core: CacheSize must be positive, got %d", cfg.CacheSize)
	}
	if cfg.WindowSize < 0 || cfg.MaxTrackedObjects < 0 || cfg.DriftCheckEvery < 0 {
		return nil, fmt.Errorf("core: WindowSize, MaxTrackedObjects and DriftCheckEvery must be >= 0, got %d, %d, %d",
			cfg.WindowSize, cfg.MaxTrackedObjects, cfg.DriftCheckEvery)
	}
	if cfg.DeployLag < 0 || cfg.DeployLag >= cfg.WindowSize {
		return nil, fmt.Errorf("core: DeployLag must be in [0, WindowSize %d), got %d", cfg.WindowSize, cfg.DeployLag)
	}
	var err error
	if cfg.Cutoff, err = sim.ResolveCutoff(cfg.Cutoff); err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	if err := cfg.GBDT.Validate(); err != nil {
		return nil, err
	}
	if cfg.HybridLR < 0 {
		return nil, fmt.Errorf("core: HybridLR must be non-negative, got %v", cfg.HybridLR)
	}
	if cfg.DriftThreshold < 0 {
		return nil, fmt.Errorf("core: DriftThreshold must be non-negative, got %v", cfg.DriftThreshold)
	}
	res, err := evict.NewResidents(cfg.CacheSize, cfg.Eviction, evict.Options{Seed: cfg.Seed, Obs: cfg.Obs})
	if err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	p := &LFO{
		cfg:     cfg,
		name:    "LFO",
		res:     res,
		tracker: features.NewTracker(cfg.MaxTrackedObjects),
		m:       newCoreMetrics(cfg.Obs),
	}
	if cfg.HybridLR > 0 || cfg.DriftThreshold > 0 {
		p.hm = newHybridMetrics(cfg.Obs)
	}
	if cfg.HybridLR > 0 {
		shadow, err := ogd.NewLearner(ogd.Config{CacheSize: cfg.CacheSize, Eta: cfg.OGDEta})
		if err != nil {
			return nil, fmt.Errorf("core: %v", err)
		}
		p.shadow = shadow
		p.bias = make([]float64, numSizeClasses)
	}
	if cfg.DriftThreshold > 0 {
		det, err := drift.New(drift.Config{Features: driftFeatures})
		if err != nil {
			return nil, fmt.Errorf("core: %v", err)
		}
		p.det = det
	}
	if cfg.Eviction != "rank" {
		p.name += "+" + cfg.Eviction // the paper's own eviction needs no suffix
	}
	if cfg.InitialModel != nil {
		if cfg.InitialModel.Dim != features.Dim {
			return nil, fmt.Errorf("core: InitialModel dim %d != %d", cfg.InitialModel.Dim, features.Dim)
		}
		// Compile the flat inference kernel for hand-assembled warm-start
		// models; trained/loaded models are already compiled and recompile
		// cheaply.
		if err := cfg.InitialModel.Compile(); err != nil {
			return nil, fmt.Errorf("core: InitialModel: %v", err)
		}
		p.model = cfg.InitialModel
	}
	return p, nil
}

// Name implements sim.Policy.
func (p *LFO) Name() string { return p.name }

// Model returns the currently deployed model (nil during bootstrap).
func (p *LFO) Model() *gbdt.Model { return p.model }

// Windows returns the number of training rounds deployed.
func (p *LFO) Windows() int { return p.windows }

// Request implements sim.Policy.
func (p *LFO) Request(r trace.Request) bool {
	p.clock++
	p.now = r.Time
	p.m.requests.Inc()
	store := p.res.Store

	// Record the window sample before acting (features must reflect the
	// pre-decision state, exactly what the deployed model would see). The
	// row is written once, into the window record, where the model, the drift
	// detector and training read it; the same call records the request.
	p.winReqs = append(p.winReqs, r)
	n := len(p.winFeats)
	p.winFeats = slices.Grow(p.winFeats, features.Dim)[:n+features.Dim]
	row := p.winFeats[n:]
	p.tracker.Observe(r, store.Free(), row)

	// score is what the evictor is handed: the model's raw likelihood, or
	// the request counter during bootstrap (admit all, LRU order).
	// admitScore is the admission side of the same number: the hybrid
	// bridge modulates the admission decision only, leaving eviction on the
	// raw score so the ranked queue stays internally consistent between
	// retrains.
	score := float64(p.clock)
	if p.model != nil {
		score = p.model.Predict(row)
	}
	admitScore := score
	if p.shadow != nil {
		admitScore = p.hybridScore(r, score)
	}
	admit := p.model == nil || admitScore >= p.cfg.Cutoff
	if p.det != nil {
		p.observeDrift(row)
		if p.clock%int64(p.cfg.DriftCheckEvery) == 0 {
			p.driftCheck()
		}
	}

	e := store.Get(r.ID)
	hit := e != nil
	if hit {
		p.m.hits.Inc()
	}
	switch {
	case hit && !admit && !p.cfg.DisableEvictOnHit:
		// Re-evaluated on every request (§2.4): matching OPT's behavior,
		// drop the object right away when the model says OPT would not keep
		// it. The keep/evict call is an admission-style decision, so it
		// uses the hybrid-modulated score.
		p.res.Evictor.OnRemove(e)
		store.Remove(e.ID)
	case hit:
		e.Payload.Score = score
		p.res.Evictor.OnHit(e, r)
	case admit && r.Size <= store.Capacity():
		p.res.Admit(r, score)
	}

	// A lagged round deploys right after request DeployLag of the window.
	if p.round != nil && len(p.winReqs) >= p.cfg.DeployLag {
		p.await()
	}
	if len(p.winReqs) >= p.cfg.WindowSize {
		p.closeWindow()
	}
	return hit
}

// Close deploys the round still in flight when the trace ends, waiting for
// it. It is a no-op at DeployLag 0, whose rounds deploy at the boundary.
func (p *LFO) Close() {
	if p.round != nil {
		p.await()
	}
}

// closeWindow ends the current window — at the boundary, or early when the
// drift trigger fires — and launches its training round. A round still in
// flight, which only an early close before the deploy point can meet, is
// awaited and deployed first: one round at a time, and no window is ever
// dropped. At DeployLag 0 the new round is awaited on the spot, before the
// request that closed the window touches the cache.
func (p *LFO) closeWindow() {
	p.completedWindows++
	p.m.trackedObjects.Set(int64(p.tracker.Len()))
	p.m.gapRings.Set(int64(p.tracker.Rings()))
	p.m.trackerBytes.Set(p.tracker.Bytes())
	p.m.residentBytes.Set(p.res.Store.Used())
	if p.round != nil {
		p.await()
	}
	if p.det != nil {
		// The rows observed since the previous round's launch are what this
		// round trains on; snapshot them as its drift reference.
		p.det.SetReference()
		p.driftRefs++
	}
	p.swapWindow()
	// Buffered, so the round's goroutine exits even if no one awaits it.
	ch := make(chan trainResult, 1)
	p.round = ch
	reqs, feats, cfg, m := p.spareReqs, p.spareFeats, p.cfg, p.m
	go func() { ch <- trainWindow(reqs, feats, cfg, m) }()
	p.updateLag()
	if p.cfg.DeployLag == 0 {
		p.await()
	}
}

// swapWindow exchanges the recording and spare buffer pairs, emptying the
// new recording pair and keeping both backing arrays.
func (p *LFO) swapWindow() {
	p.winReqs, p.spareReqs = p.spareReqs[:0], p.winReqs
	p.winFeats, p.spareFeats = p.spareFeats[:0], p.winFeats
}

// await blocks until the round in flight lands, then deploys it. If nothing
// has been recorded since the launch (DeployLag 0, or a trace that ended on
// a boundary), the round's buffers take recording back, so the spare pair is
// never grown where the lag does not need it.
func (p *LFO) await() {
	sc := obs.Start(p.m.deployWaitNS)
	tr := <-p.round
	sc.Stop()
	p.round = nil
	if len(p.winReqs) == 0 {
		p.swapWindow()
	}
	p.deploy(tr)
}

// trainWindow is the learning half of a window handoff; it is free of
// references to the live cache so it can run concurrently with serving.
// OPT's decisions become labels, the recorded feature matrix becomes the
// training set without a copy, and the admission model is fitted. The
// eviction ranker trains from the same window's labels (an object OPT
// would not cache is the ideal victim), so one solve supervises both
// models. The new model's agreement with OPT on its own window — one
// batched prediction — is computed only when a registry will record it.
func trainWindow(reqs []trace.Request, feats []float64, cfg Config, m coreMetrics) trainResult {
	sc := obs.Start(m.optNS)
	res, err := opt.Compute(&trace.Trace{Requests: reqs}, cfg.OPT)
	sc.Stop()
	if err != nil {
		// OPT computation cannot fail for a valid window and positive
		// cache size; fail loudly rather than serve a stale model
		// silently.
		panic(fmt.Sprintf("core: OPT computation failed: %v", err))
	}
	m.windowRequests.Set(int64(len(reqs)))
	// An admitted interval ends in exactly one OPT hit: Hits counts positives.
	m.labelPositivePPM.Set(int64(res.Hits) * 1e6 / int64(len(reqs)))
	sc = obs.Start(m.trainNS)
	model, err := fit(feats, res.Admit, cfg.GBDT)
	sc.Stop()
	if err != nil {
		panic(fmt.Sprintf("core: training failed: %v", err))
	}
	if cfg.Obs != nil {
		_, fp, fn := tallyAgreement(model, feats, res.Admit, cfg.Cutoff, cfg.Workers)
		m.trainAgreementPPM.Set(int64(len(reqs)-fp-fn) * 1e6 / int64(len(reqs)))
	}
	tr := trainResult{model: model}
	if cfg.Eviction == "learned" {
		sc = obs.Start(m.evictTrainNS)
		tr.evictModel, err = evict.Train(reqs, res.Admit, cfg.GBDT)
		sc.Stop()
		if err != nil {
			panic(fmt.Sprintf("core: eviction training failed: %v", err))
		}
	}
	return tr
}

// deploy swaps a finished training round's models in: both at the same
// point, atomically between requests. The fresh model owns the adapted
// state again, so the bridge bias starts over from zero.
func (p *LFO) deploy(tr trainResult) {
	p.model = tr.model
	p.resetBias()
	p.res.Evictor.SetModel(tr.evictModel) // nil, and ignored, unless learned
	p.windows++
	p.m.retrains.Inc()
	p.updateLag()
	// The one place serving asks which evictor it has: the ranked queue
	// orders residents by scores the outgoing model (or the bootstrap
	// counter) gave them, so it alone is re-keyed under the new model.
	if ranked, ok := p.res.Evictor.(*evict.Ranked); ok {
		p.rescore(ranked)
	}
}

// rescore re-ranks every resident under the model just deployed. The
// residents are taken in sorted ID order, which keeps map iteration order
// out of the queue's tie-breaking; the tracker is only read, so the feature
// rows fill in parallel chunks and one batched prediction scores them.
func (p *LFO) rescore(ranked *evict.Ranked) {
	store := p.res.Store
	residents := make([]*sim.StoreEntry[evict.Meta], store.Len())
	for i := range residents {
		residents[i] = store.At(i)
	}
	sort.Slice(residents, func(i, j int) bool { return residents[i].ID < residents[j].ID })

	rows := make([]float64, len(residents)*features.Dim)
	free := store.Free()
	par.Ranges(len(residents), p.cfg.Workers, 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.tracker.FeaturesByID(residents[i].ID, residents[i].Size, p.now, free,
				rows[i*features.Dim:(i+1)*features.Dim])
		}
	})
	sc := obs.Start(p.m.rescoreNS)
	scores := make([]float64, len(residents))
	p.model.PredictMatrix(rows, scores, p.cfg.Workers)
	for i, e := range residents {
		ranked.Rescore(e, scores[i])
	}
	sc.Stop()
}
