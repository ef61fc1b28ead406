package policy

import (
	"math/bits"
	"math/rand"

	"lfo/internal/evict"
	"lfo/internal/trace"
)

// RLC state-space geometry: states are (log2 size, log2 recency) buckets.
const (
	rlcSizeBuckets    = 16
	rlcRecencyBuckets = 10
)

// rlcRecencySpan is the request gap from which on a recency falls in the
// last bucket, the never-seen one: bits.Len64(gap) >= rlcRecencyBuckets-1.
// A request time older than that changes no decision, so RLC keeps its
// last-seen times in two generations of rlcRecencySpan requests each.
const rlcRecencySpan = 1 << (rlcRecencyBuckets - 2)

// RLC is a model-free reinforcement-learning cache in the style of the
// RL-based caching evaluated at HotNets'17 [48] and reproduced in Fig 1 of
// the paper: ε-greedy Q-learning chooses between admitting and bypassing
// each missed object over a coarse (size, recency) state space, with LRU
// eviction. Rewards arrive only when an admitted object later hits (or is
// evicted unused) — exactly the delayed-feedback pathology the paper
// identifies as the root cause of model-free RL's weakness for caching.
// Expect it to land near RND and LRU, well below GDSF.
type RLC struct {
	res *evict.Residents // kind lru
	// admitted holds each resident's state at its admission, the state a
	// delayed reward is credited to.
	admitted map[trace.ObjectID]rlcState
	rng      *rand.Rand

	q       [rlcSizeBuckets][rlcRecencyBuckets][2]float64
	epsilon float64
	alpha   float64
	// lastSeen maps an object to the clock of its latest request within
	// the current generation, prevSeen within the previous one; the
	// generations rotate every rlcRecencySpan requests.
	lastSeen, prevSeen map[trace.ObjectID]int64
	clock              int64
}

// rlcState is a (size, recency) state.
type rlcState struct{ sb, rb int }

// NewRLC returns the Q-learning cache baseline.
func NewRLC(capacity, seed int64) *RLC {
	return &RLC{
		res:      newResidents(capacity, "lru", 0),
		admitted: make(map[trace.ObjectID]rlcState, 1024),
		rng:      rand.New(rand.NewSource(seed)),
		epsilon:  0.1,
		alpha:    0.1,
		lastSeen: make(map[trace.ObjectID]int64, rlcRecencySpan),
		prevSeen: make(map[trace.ObjectID]int64, rlcRecencySpan),
	}
}

// Name implements sim.Policy.
func (p *RLC) Name() string { return "RLC" }

func (p *RLC) state(r trace.Request) (int, int) {
	sb := bits.Len64(uint64(r.Size))
	if sb >= rlcSizeBuckets {
		sb = rlcSizeBuckets - 1
	}
	rb := rlcRecencyBuckets - 1 // never seen
	last, ok := p.lastSeen[r.ID]
	if !ok {
		last, ok = p.prevSeen[r.ID]
	}
	if ok {
		rb = bits.Len64(uint64(p.clock - last))
		if rb >= rlcRecencyBuckets {
			rb = rlcRecencyBuckets - 1
		}
	}
	return sb, rb
}

// learn applies a bandit-style Q update for a delayed reward.
func (p *RLC) learn(sb, rb, action int, reward float64) {
	q := &p.q[sb][rb][action]
	*q += p.alpha * (reward - *q)
}

// Request implements sim.Policy.
func (p *RLC) Request(r trace.Request) bool {
	p.clock++
	if p.clock%rlcRecencySpan == 0 {
		p.lastSeen, p.prevSeen = p.prevSeen, p.lastSeen
		clear(p.lastSeen)
	}
	sb, rb := p.state(r)
	defer func() { p.lastSeen[r.ID] = p.clock }()

	if e := p.res.Store.Get(r.ID); e != nil {
		// Delayed reward: the admission decision that placed this
		// object finally pays off.
		m := p.admitted[r.ID]
		p.learn(m.sb, m.rb, 1, 1)
		p.res.Evictor.OnHit(e, r)
		return true
	}
	if r.Size > p.res.Store.Capacity() {
		return false
	}
	// ε-greedy action selection: 0 = bypass, 1 = admit.
	action := 0
	if p.rng.Float64() < p.epsilon {
		action = p.rng.Intn(2)
	} else if p.q[sb][rb][1] >= p.q[sb][rb][0] {
		action = 1
	}
	if action == 0 {
		p.learn(sb, rb, 0, 0) // bypass: neutral immediate reward
		return false
	}
	for !p.res.Store.Fits(r.Size) {
		victim := p.res.Evictor.Victim(r.Time)
		if p.res.Store.Get(victim).Payload.Freq == 1 {
			// Evicted unused: the admission wasted space.
			m := p.admitted[victim]
			p.learn(m.sb, m.rb, 1, -0.2)
		}
		delete(p.admitted, victim)
		p.res.Evict(victim)
	}
	p.res.Admit(r, 1)
	p.admitted[r.ID] = rlcState{sb, rb}
	return false
}
