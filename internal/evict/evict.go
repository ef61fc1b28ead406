// Package evict implements learned sampled-candidate eviction, closing
// the admission×eviction loop around the paper's admission-only LFO.
//
// The design follows the minimal-overhead learned-eviction line of work
// (Cold-RL; Yang/Berger/Li/Lloyd): instead of maintaining a total order
// over residents, eviction draws K uniform candidates from the store's
// dense entry index (O(K), allocation-free), scores them with a boosted-
// tree ranker over lightweight per-object features (size, cost,
// frequency, age, time-since-last-access), and evicts the minimum. A
// resident keeps its score, in its Meta, for as long as the ranker would
// provably return the same bits — until it is touched, the model is
// swapped, or its age or idle time crosses the nearest threshold on its
// paths through the trees (gbdt's stability horizon). A score that lapses
// only because age and idle time grew is carried forward over the tests
// they crossed (gbdt's Advance, from state kept in a slab slot) rather
// than scored again, so a pick scores about 3 % of its candidates in full,
// carries about a third, and picks the victims it would pick scoring all
// of them. The ranker is trained from the same OPT window
// labels that train LFO's admission model: an object OPT would not cache
// now is the ideal eviction victim, so one offline solve per window labels
// both models.
//
// The package provides the Evictor strategy interface over a shared Meta
// payload — §2.4's score-ranked queue, the learned ranker, and the
// heuristics of the paper's baseline columns (GDSF, LFUDA, LFU, LRU, FIFO,
// RND, GD-Wheel, Hyperbolic, LHD; see Kinds) — and Residents, the one
// make-room-then-add loop every cache here runs them through:
// internal/core's LFO, internal/tiered's levels, every internal/policy
// baseline and OGD's integral cache, and the standalone Cache that pairs
// any sim.Admitter (admit-all, SecondHitCensor, ...) with any Evictor and
// retrains the eviction ranker on the same window cadence — the
// {admission}×{eviction} ablation grid's building block. Outside the
// benchmark harness, no other package keeps a resident set.
package evict

import (
	"fmt"
	"math"
	"strings"

	"lfo/internal/gbdt"
	"lfo/internal/obs"
	"lfo/internal/pq"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// Dim is the eviction feature vector width: size, cost, frequency, age,
// and idle time. The features are deliberately cheap — everything is
// already in the entry's Meta, so building a candidate row is five
// stores, no map lookups.
const Dim = 5

// Feature indices into an eviction row.
const (
	FeatSize = iota // object size in bytes
	FeatCost        // retrieval cost at the last access
	FeatFreq        // accesses during the current residency
	FeatAge         // time since admission (trace time units)
	FeatIdle        // time since last access
)

// DefaultCandidates is the sampled candidate set size K, for the learned
// ranker and for Hyperbolic's and LHD's draws. 64 samples enough of the
// resident set that the empirical victim quality is close to a full scan,
// and the candidate buffers stay a few cache lines; what a learned pick
// costs is the candidates whose cached score has lapsed, about a third of
// them, nearly all carried forward rather than scored, not K. It is a
// constant, not an option: nothing ever ran with another value.
const DefaultCandidates = 64

// Meta is the per-object payload every evictor shares. The embedded
// intrusive list links serve the LRU and FIFO evictors; the scalar fields
// key the heap evictors and double as the learned ranker's feature source.
type Meta struct {
	// AdmitTime is the trace time the object was admitted.
	AdmitTime int64
	// LastAccess is the trace time of the most recent hit (or admission).
	LastAccess int64
	// Freq counts accesses during the current residency (1 at admission).
	Freq int64
	// Cost is the retrieval cost observed at the last access.
	Cost float64
	// Score is what the owning cache scored the object with at its last
	// request (or rescore): LFO's admission likelihood, LRU-K's K-distance,
	// OGD's allocation. The cache writes it before OnAdmit and OnHit; it is
	// the ranked evictor's queue key and the others ignore it. It is not the
	// learned evictor's ranker score: that one is cached in rank, below.
	Score float64

	// rank is the learned evictor's score cache: what the eviction ranker of
	// epoch rankEpoch made of this resident, and the last trace time that
	// score is still exactly what the ranker would return (see
	// Learned.pickVictim). Epoch 0 is no ranker's, so the zero Meta that
	// Store.Add hands out holds nothing cached, whatever the trace's times.
	rank      float64
	rankUntil int64
	rankEpoch uint64
	// slot is 1 + the learned evictor's slab slot that carries this
	// resident's score forward (Learned.state), 0 for none: taken at the
	// first full score, given back in OnRemove.
	slot uint32

	prev, next *sim.StoreEntry[Meta] // intrusive LRU list
}

// admitted initializes the metadata of an entry Store.Add just returned
// (zeroed but for the Score its cache wrote). A new residency starts with
// no ranker score, said here as well so that it does not hang on the
// zeroing.
func (m *Meta) admitted(r trace.Request) {
	m.AdmitTime, m.LastAccess, m.Freq, m.Cost = r.Time, r.Time, 1, r.Cost
	m.rankEpoch = 0
}

// touched records a hit. Frequency, cost and idle time all moved, so a
// cached ranker score no longer describes the resident.
func (m *Meta) touched(r trace.Request) {
	m.LastAccess = r.Time
	m.Freq++
	m.Cost = r.Cost
	m.rankEpoch = 0
}

// featuresInto fills row (len >= Dim) with the entry's eviction features
// at trace time now.
func featuresInto(row []float64, size int64, m *Meta, now int64) {
	row[FeatSize] = float64(size)
	row[FeatCost] = m.Cost
	row[FeatFreq] = float64(m.Freq)
	row[FeatAge] = float64(now - m.AdmitTime)
	row[FeatIdle] = float64(now - m.LastAccess)
}

// Evictor is an eviction strategy over a store of Meta payloads. The
// owning cache calls the On* hooks as objects move through the store and
// Victim when it must free space; implementations keep their auxiliary
// state (heap, list, model) consistent through those hooks alone. Time is
// the request's Time as the cache hands it over: trace time under LFO and
// Cache, the request count under internal/policy's admit-all baselines.
type Evictor interface {
	// Name identifies the strategy in reports.
	Name() string
	// OnAdmit initializes the entry's metadata right after Store.Add;
	// the cache has already written Payload.Score.
	OnAdmit(e *sim.StoreEntry[Meta], r trace.Request)
	// OnHit updates the entry's metadata on a cache hit; a cache that
	// rescored the object wrote Payload.Score first.
	OnHit(e *sim.StoreEntry[Meta], r trace.Request)
	// OnRemove tears down the entry's metadata as it leaves the store,
	// next to its Store.Remove and before any Store.Add can recycle it
	// (called for ranked evictions and admission-driven drops alike).
	OnRemove(e *sim.StoreEntry[Meta])
	// Victim returns the object to evict next at trace time now. The
	// store must be non-empty; Victim never fails.
	Victim(now int64) trace.ObjectID
	// SetModel deploys a trained eviction ranker. Only the learned
	// evictor uses it; the heuristics ignore the call.
	SetModel(m *gbdt.Model)
}

// kinds are the strategies NewEvictor builds: §2.4's queue keyed by
// Meta.Score, the sampled-candidate ranker, and the heuristics the paper's
// baseline columns measure.
var kinds = [...]string{"rank", "learned", "gdsf", "lru", "fifo", "lfu", "lfuda", "rnd", "gdwheel", "hyperbolic", "lhd"}

// Kinds returns the names NewEvictor accepts, in a fixed order.
func Kinds() []string { return append([]string(nil), kinds[:]...) }

// NewEvictor constructs the named eviction strategy (one of Kinds) over
// the store.
func NewEvictor(kind string, store *sim.Store[Meta], opts Options) (Evictor, error) {
	switch kind {
	case "rank":
		return &Ranked{q: pq.New()}, nil
	case "learned":
		return newLearned(store, opts), nil
	case "gdsf", "lfuda", "lfu":
		return &heapEvictor{q: pq.New(), kind: kind, sized: kind == "gdsf", aging: kind != "lfu"}, nil
	case "lru":
		return &lruEvictor{}, nil
	case "fifo":
		return &fifoEvictor{}, nil
	case "rnd":
		return &rndEvictor{newDrawer(store, opts.Seed)}, nil
	case "gdwheel":
		return newGDWheel(), nil
	case "hyperbolic":
		return &hyperbolic{newDrawer(store, opts.Seed)}, nil
	case "lhd":
		return newLHD(store, opts.Seed), nil
	default:
		return nil, fmt.Errorf("evict: unknown evictor %q (want one of %s)", kind, strings.Join(kinds[:], ", "))
	}
}

// Options tunes evictor construction.
type Options struct {
	// Seed seeds the learned evictor's candidate sampler and the draws of
	// the random, hyperbolic and lhd evictors.
	Seed int64
	// Obs, when set, records eviction metrics (ranker latency, candidate
	// counts, victims by size tier, model swaps); nil disables recording
	// at zero cost.
	Obs *obs.Registry
}

// metrics bundles the learned evictor's obs handles, resolved once at
// construction; all handles are nil-safe no-ops without a registry.
type metrics struct {
	rankNS         *obs.Histogram
	candidates     *obs.Counter
	candidateSets  *obs.Counter
	scoredRows     *obs.Counter
	carriedRows    *obs.Counter
	cacheHits      *obs.Counter
	bootstrapPicks *obs.Counter
	modelSwaps     *obs.Counter
}

func newEvictMetrics(r *obs.Registry) metrics {
	return metrics{
		rankNS:         r.Histogram("evict_rank_ns", obs.LatencyBounds),
		candidates:     r.Counter("evict_candidates_total"),
		candidateSets:  r.Counter("evict_candidate_sets_total"),
		scoredRows:     r.Counter("evict_scored_rows_total"),
		carriedRows:    r.Counter("evict_carried_rows_total"),
		cacheHits:      r.Counter("evict_score_cache_hits_total"),
		bootstrapPicks: r.Counter("evict_bootstrap_picks_total"),
		modelSwaps:     r.Counter("evict_model_swaps_total"),
	}
}

// nan is the missing-feature marker shared with internal/features: the
// learner routes NaN down a learned default branch.
var nan = math.NaN()
