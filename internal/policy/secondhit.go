package policy

import (
	"lfo/internal/trace"
)

// secondHitDefaultIDs bounds the censor's seen-set when the caller passes
// 0 to NewSecondHitCensor.
const secondHitDefaultIDs = 1 << 20

// SecondHitCensor is the classic frequency heuristic from production CDNs
// (admit an object only on its second request within recent history),
// used here as the degraded-mode admission policy when the learned remote
// path is unavailable: it filters one-hit wonders at near-zero cost and
// needs no model.
//
// Memory is bounded with two generations of seen-IDs: when the current
// generation fills up, it becomes the previous generation and the oldest
// one is discarded, so the censor remembers between maxIDs and 2×maxIDs
// distinct objects and forgetting is abrupt only at generation granularity.
//
// It implements sim.Admitter.
type SecondHitCensor struct {
	maxIDs int
	cur    map[trace.ObjectID]struct{}
	prev   map[trace.ObjectID]struct{}
}

// NewSecondHitCensor returns a censor remembering roughly maxIDs distinct
// object IDs per generation. 0 means the package default (1M IDs per
// generation); a negative value disables rotation (unbounded memory).
func NewSecondHitCensor(maxIDs int) *SecondHitCensor {
	if maxIDs == 0 {
		maxIDs = secondHitDefaultIDs
	}
	return &SecondHitCensor{
		maxIDs: maxIDs,
		cur:    make(map[trace.ObjectID]struct{}),
		prev:   make(map[trace.ObjectID]struct{}),
	}
}

// Name labels the censor in a combined cache's name (evict.Cache).
func (p *SecondHitCensor) Name() string { return "second-hit" }

// seen reports whether the object appears in either generation.
func (p *SecondHitCensor) seen(id trace.ObjectID) bool {
	if _, ok := p.cur[id]; ok {
		return true
	}
	_, ok := p.prev[id]
	return ok
}

// Admit admits objects that were requested before within the censor's
// memory, with likelihood 1 (0 otherwise). freeBytes is ignored.
func (p *SecondHitCensor) Admit(r trace.Request, freeBytes int64) (bool, float64) {
	if p.seen(r.ID) {
		return true, 1
	}
	return false, 0
}

// Observe records the request in the current generation, rotating
// generations when the bound is reached.
//
// The insert lands before the rotation check: rotating first would let a
// single brand-new ID arriving at a full generation discard the previous
// generation immediately and then seed a near-empty current one, so a
// burst of one-hit wonders could flush the admission history the moment
// it started. Inserting first means a rotation only happens once a full
// generation of maxIDs distinct IDs has accumulated — the triggering ID
// is retained with the generation it arrived in, and the remembered set
// provably stays between maxIDs and 2×maxIDs distinct objects.
func (p *SecondHitCensor) Observe(r trace.Request) {
	p.cur[r.ID] = struct{}{}
	if p.maxIDs > 0 && len(p.cur) >= p.maxIDs {
		p.prev = p.cur
		p.cur = make(map[trace.ObjectID]struct{}, p.maxIDs)
	}
}
