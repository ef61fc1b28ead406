package evict

import (
	"math"

	"lfo/internal/gbdt"
	"lfo/internal/obs"
	"lfo/internal/pq"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// Ranked is §2.4's eviction: a total order over the residents by the
// score their cache last gave them (Meta.Score), evicting the minimum —
// LFO's admission likelihood, LRU-K's K-distance, OGD's allocation. Equal
// scores fall in order of their last touch, oldest first, which makes the
// bootstrap's request-counter score plain LRU. The queue calls are direct
// — this is the request path of every rank-mode cache, held to the
// zero-allocation discipline.
type Ranked struct {
	q *pq.Queue
}

// Name implements Evictor.
func (k *Ranked) Name() string { return "rank" }

// OnAdmit implements Evictor.
//
//lfo:hotpath
func (k *Ranked) OnAdmit(e *sim.StoreEntry[Meta], r trace.Request) {
	k.q.Push(e.ID, e.Payload.Score)
}

// OnHit implements Evictor.
//
//lfo:hotpath
func (k *Ranked) OnHit(e *sim.StoreEntry[Meta], r trace.Request) {
	k.q.Update(e.ID, e.Payload.Score)
}

// OnRemove implements Evictor.
//
//lfo:hotpath
func (k *Ranked) OnRemove(e *sim.StoreEntry[Meta]) {
	k.q.Remove(e.ID)
}

// Victim implements Evictor.
//
//lfo:hotpath
func (k *Ranked) Victim(now int64) trace.ObjectID {
	id, _ := k.q.Min()
	return id
}

// SetModel implements Evictor; the scores come from the cache's model.
func (k *Ranked) SetModel(m *gbdt.Model) {}

// Rescore re-keys a resident outside a request: a window handoff re-ranks
// every resident under the model it just deployed, so bootstrap-era or
// stale-model scores cannot linger.
func (k *Ranked) Rescore(e *sim.StoreEntry[Meta], score float64) {
	e.Payload.Score = score
	k.q.Update(e.ID, score)
}

// Len returns how many objects the queue holds: exactly the residents.
func (k *Ranked) Len() int { return k.q.Len() }

// sampler is the bookkeeping of the evictors that keep no structure of
// their own and draw victims from the store's dense index (learned, rnd,
// hyperbolic, lhd): their hooks only keep the shared Meta current.
type sampler struct{}

// OnAdmit implements Evictor.
func (sampler) OnAdmit(e *sim.StoreEntry[Meta], r trace.Request) { e.Payload.admitted(r) }

// OnHit implements Evictor.
func (sampler) OnHit(e *sim.StoreEntry[Meta], r trace.Request) { e.Payload.touched(r) }

// OnRemove implements Evictor.
func (sampler) OnRemove(e *sim.StoreEntry[Meta]) {}

// Learned is the sampled-candidate learned evictor: Victim draws K
// uniform candidates from the store's dense index, ranks them with the
// deployed ranker, and returns the minimum (the object the model believes
// OPT is least likely to keep). Before the first model deploys it falls
// back to sampled-LRU: the candidate with the oldest LastAccess.
//
// A resident's score is kept in its Meta and reused for as long as it is
// provably the bits the ranker would return (pickVictim), so a pick runs
// the ranker only on the candidates whose score has lapsed, and a score
// that lapsed only because age and idle time grew is carried forward over
// the tests they crossed instead of scored again; the victims are those of
// scoring all K afresh. The candidate buffer is preallocated and the
// carried state lives in a slab of recycled slots, so a pick is
// allocation-free at steady state; the sampler is a seeded SplitMix64
// stream, so victim sequences are byte-reproducible for a given seed.
type Learned struct {
	sampler
	store *sim.Store[Meta]
	model *gbdt.Model
	rng   uint64
	cands [DefaultCandidates]*sim.StoreEntry[Meta]
	// epoch names the cached scores that may still be used: those written
	// since the last model swap and the last backwards step of time.
	epoch uint64
	// now is the trace time of the latest model-ranked pick.
	now int64
	// slab holds, words to a slot, the state gbdt's PredictCarry leaves for
	// a resident's score under the deployed ranker (0 words: it does not
	// carry); slots counts the slots handed out, free those given back.
	slab  []uint32
	words int
	slots uint32
	free  []uint32
	// carried is how many candidates of the last pick had their lapsed
	// score advanced rather than scored afresh.
	carried int
	m       metrics
}

func newLearned(store *sim.Store[Meta], opts Options) *Learned {
	return &Learned{store: store, rng: uint64(opts.Seed), epoch: 1, now: math.MinInt64, m: newEvictMetrics(opts.Obs)}
}

// Name implements Evictor.
func (l *Learned) Name() string { return "learned" }

// OnRemove implements Evictor: the resident's slab slot goes back.
func (l *Learned) OnRemove(e *sim.StoreEntry[Meta]) {
	if s := e.Payload.slot; s != 0 {
		l.free = append(l.free, s)
		e.Payload.slot = 0
	}
}

// SetModel deploys a trained eviction ranker. The swap is atomic with
// respect to requests (the owning cache is single-threaded), so every
// subsequent Victim ranks with the new model; the scores the old one left
// in the residents' Meta lapse with the epoch, and the slab takes the new
// ranker's stride (the residents keep their slots; what the slots hold is
// rewritten by each resident's next full score). The slab is sized here for
// every resident and an eighth more, so that picks seldom grow it.
func (l *Learned) SetModel(m *gbdt.Model) {
	l.model = m
	l.epoch++
	l.m.modelSwaps.Inc()
	l.words = 0
	if m != nil {
		l.words = m.CarryWords(len(movingFeats))
	}
	need := l.words * int(l.slots)
	if room := l.words * max(int(l.slots), l.store.Len()); room > cap(l.slab) {
		l.slab = make([]uint32, need, room+room/8)
	} else {
		l.slab = l.slab[:need]
	}
}

// Model returns the deployed ranker (nil during bootstrap).
func (l *Learned) Model() *gbdt.Model { return l.model }

// Victim implements Evictor: the observability wrapper around the
// annotated zero-allocation pick.
func (l *Learned) Victim(now int64) trace.ObjectID {
	sc := obs.Start(l.m.rankNS)
	id, n, scored := l.pickVictim(now)
	sc.Stop()
	l.m.candidateSets.Inc()
	l.m.candidates.Add(int64(n))
	if l.model == nil {
		l.m.bootstrapPicks.Inc()
	} else {
		l.m.scoredRows.Add(int64(scored))
		l.m.carriedRows.Add(int64(l.carried))
		l.m.cacheHits.Add(int64(n - scored - l.carried))
	}
	return id
}

// movingFeats are the eviction features that change while a resident is
// left alone: both grow with trace time, the other three move only in
// touched.
var movingFeats = [...]int{FeatAge, FeatIdle}

// pickVictim draws min(K, Len) candidates — K with replacement, or every
// resident when there are no more than K — and returns the lowest-scored one
// (first-wins on ties), with the number of candidates and how many of them
// went through the ranker in full; l.carried says how many were advanced.
// This is the per-eviction hot path: no map lookups, no allocation.
//
// Only a candidate without a valid cached score is scored: its row is built
// straight from the entry's metadata and goes through PredictStable (or
// PredictCarry, which also keeps its state in the resident's slab slot),
// which returns with the score how far age and idle time may grow before
// any tree's exit leaf can move. Both grow by exactly the trace time that
// passes, so the score is the ranker's, bit for bit, until the earlier of
// AdmitTime + ⌊age limit⌋ and LastAccess + ⌊idle limit⌋, and until then a
// pick copies it. What else could change it ends the cached score's life
// explicitly: a hit or a (re-)admission (touched, admitted), a model swap
// (SetModel), and a pick earlier than the one before — the horizon only
// looks forward — which start a new epoch. A score that outlives its
// horizon inside its epoch has seen only age and idle time grow, so when
// the ranker carries scores (every tree of at most 32 leaves) the state its
// last score left in the slot is advanced over the tests they crossed
// (Advance), which gives a full score's bits. The
// minimum is therefore taken over the same scores in the same candidate
// order as scoring all of them afresh would give: same victims, same
// sampler stream.
//
//lfo:hotpath
func (l *Learned) pickVictim(now int64) (id trace.ObjectID, n, scored int) {
	n = DefaultCandidates
	resident := l.store.Len()
	if resident <= n {
		// Small resident set: scan it exhaustively instead of sampling
		// with replacement (which could repeat entries and miss the true
		// minimum). The pick is then exact, not approximate.
		n = resident
		for i := 0; i < n; i++ {
			l.cands[i] = l.store.At(i)
		}
	} else {
		for i := 0; i < n; i++ {
			l.cands[i] = l.store.At(l.intn(resident))
		}
	}
	l.carried = 0
	best := l.cands[0]
	if l.model == nil {
		// Bootstrap: sampled-LRU (oldest last access wins).
		for _, e := range l.cands[1:n] {
			if e.Payload.LastAccess < best.Payload.LastAccess {
				best = e
			}
		}
		return best.ID, n, 0
	}
	if now < l.now {
		l.epoch++
	}
	l.now = now
	var row [Dim]float64
	var limits [len(movingFeats)]float64
	bestScore := math.Inf(1)
	for _, e := range l.cands[:n] {
		m := &e.Payload
		if m.rankEpoch != l.epoch || now > m.rankUntil {
			featuresInto(row[:], e.Size, m, now)
			switch {
			case l.words == 0:
				m.rank = l.model.PredictStable(row[:], movingFeats[:], limits[:])
				scored++
			case m.rankEpoch == l.epoch:
				// Lapsed inside its epoch: its last score, this epoch's,
				// left its slot's state.
				m.rank = l.model.Advance(row[:], movingFeats[:], limits[:], l.state(m))
				l.carried++
			default:
				m.rank = l.model.PredictCarry(row[:], movingFeats[:], limits[:], l.state(m))
				scored++
			}
			m.rankUntil = min(addFloor(m.AdmitTime, limits[0]), addFloor(m.LastAccess, limits[1]))
			m.rankEpoch = l.epoch
		}
		if m.rank < bestScore {
			best, bestScore = e, m.rank
		}
	}
	return best.ID, n, scored
}

// state returns the slab words that carry m's score, taking a slot for m
// if it holds none.
//
//lfo:hotpath
func (l *Learned) state(m *Meta) []uint32 {
	if m.slot == 0 {
		if k := len(l.free); k > 0 {
			m.slot, l.free = l.free[k-1], l.free[:k-1]
		} else {
			l.slots++
			m.slot = l.slots
			//lfolint:ignore hotpath-alloc the slab grows to the most residents that ever held a slot at once, then recycles them
			l.slab = append(l.slab, make([]uint32, l.words)...)
		}
	}
	return l.slab[int(m.slot-1)*l.words:][:l.words]
}

// addFloor returns t + ⌊d⌋ saturated to the int64 range, for d not NaN:
// the last whole trace time a feature that starts counting at t is still at
// most d.
//
//lfo:hotpath
func addFloor(t int64, d float64) int64 {
	switch {
	case d >= 1<<63:
		return math.MaxInt64
	case d < -(1 << 63):
		return math.MinInt64
	}
	f := int64(math.Floor(d))
	switch {
	case f > 0 && t > math.MaxInt64-f:
		return math.MaxInt64
	case f < 0 && t < math.MinInt64-f:
		return math.MinInt64
	}
	return t + f
}

// next advances the SplitMix64 stream (same mixer as the fleet ring).
//
//lfo:hotpath
func (l *Learned) next() uint64 {
	l.rng += 0x9E3779B97F4A7C15
	x := l.rng
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// intn returns a uniform-ish index in [0, n); the modulo bias is
// negligible against 64-bit outputs and irrelevant for victim sampling.
//
//lfo:hotpath
func (l *Learned) intn(n int) int {
	return int(l.next() % uint64(n))
}

// heapEvictor is the frequency family of the baseline column over Meta:
// one pq-keyed queue whose kind fixes the key,
//
//	gdsf   L + Freq·Cost/Size   Greedy-Dual-Size-Frequency (Cherkasova)
//	lfuda  L + Freq             LFU with Dynamic Aging (Arlitt et al.)
//	lfu    Freq                 in-cache frequency
//
// evicting the minimum, equal keys oldest touch first (pq's tie order).
// Under gdsf and lfuda the age L jumps to the key of each evicted object,
// so formerly hot objects drain out after the mix shifts; lfu never ages
// and its L stays 0. With Cost = Size GDSF favours frequency, with Cost =
// 1 small objects (the classic OHR configuration).
type heapEvictor struct {
	q            *pq.Queue
	kind         string
	sized, aging bool // key divides Freq·Cost by Size; L follows the victims
	age          float64
}

func (h *heapEvictor) Name() string { return h.kind }

func (h *heapEvictor) priority(m *Meta, size int64) float64 {
	if h.sized {
		return h.age + float64(m.Freq)*m.Cost/float64(size)
	}
	return h.age + float64(m.Freq)
}

func (h *heapEvictor) OnAdmit(e *sim.StoreEntry[Meta], r trace.Request) {
	e.Payload.admitted(r)
	h.q.Push(e.ID, h.priority(&e.Payload, e.Size))
}

func (h *heapEvictor) OnHit(e *sim.StoreEntry[Meta], r trace.Request) {
	e.Payload.touched(r)
	h.q.Update(e.ID, h.priority(&e.Payload, e.Size))
}

func (h *heapEvictor) OnRemove(e *sim.StoreEntry[Meta]) {
	h.q.Remove(e.ID)
}

func (h *heapEvictor) Victim(now int64) trace.ObjectID {
	id, key := h.q.Min()
	if h.aging {
		h.age = key // dynamic aging: L := key of the evicted object
	}
	return id
}

func (h *heapEvictor) SetModel(m *gbdt.Model) {}

// Len returns how many objects the queue holds: exactly the residents.
func (h *heapEvictor) Len() int { return h.q.Len() }

// rndEvictor evicts a uniformly random resident (RND in Fig 1): one draw
// from the store's dense entry index.
type rndEvictor struct{ drawer }

func (v *rndEvictor) Name() string { return "rnd" }

func (v *rndEvictor) Victim(now int64) trace.ObjectID { return v.draw().ID }

// fifoEvictor is the recency list left alone on a hit: victims leave in
// admission order.
type fifoEvictor struct{ lruEvictor }

func (f *fifoEvictor) Name() string { return "fifo" }

func (f *fifoEvictor) OnHit(e *sim.StoreEntry[Meta], r trace.Request) {
	e.Payload.touched(r)
}

// lruEvictor threads an intrusive recency list through the Meta links.
type lruEvictor struct {
	head, tail *sim.StoreEntry[Meta]
}

func (l *lruEvictor) Name() string { return "lru" }

func (l *lruEvictor) OnAdmit(e *sim.StoreEntry[Meta], r trace.Request) {
	e.Payload.admitted(r)
	l.pushFront(e)
}

func (l *lruEvictor) OnHit(e *sim.StoreEntry[Meta], r trace.Request) {
	e.Payload.touched(r)
	l.moveToFront(e)
}

func (l *lruEvictor) OnRemove(e *sim.StoreEntry[Meta]) {
	l.remove(e)
}

func (l *lruEvictor) Victim(now int64) trace.ObjectID {
	return l.tail.ID
}

func (l *lruEvictor) SetModel(m *gbdt.Model) {}

// Len walks the recency list and returns its length: exactly the
// residents. O(n); it exists for invariant checks, not for serving.
func (l *lruEvictor) Len() int {
	n := 0
	for e := l.head; e != nil; e = e.Payload.next {
		n++
	}
	return n
}

func (l *lruEvictor) pushFront(e *sim.StoreEntry[Meta]) {
	e.Payload.prev = nil
	e.Payload.next = l.head
	if l.head != nil {
		l.head.Payload.prev = e
	} else {
		l.tail = e
	}
	l.head = e
}

func (l *lruEvictor) remove(e *sim.StoreEntry[Meta]) {
	if e.Payload.prev != nil {
		e.Payload.prev.Payload.next = e.Payload.next
	} else {
		l.head = e.Payload.next
	}
	if e.Payload.next != nil {
		e.Payload.next.Payload.prev = e.Payload.prev
	} else {
		l.tail = e.Payload.prev
	}
	e.Payload.prev, e.Payload.next = nil, nil
}

func (l *lruEvictor) moveToFront(e *sim.StoreEntry[Meta]) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}
