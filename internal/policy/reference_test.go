package policy

// The parent implementations of the baseline heuristics, kept verbatim
// (renamed) as the oracle TestHeuristicsMatchReference replays the
// registry against: RND, FIFO, LRU and LFU, LFUDA and GDSF over sim.Store
// + pq, the intrusive entry list, TinyLFU and AdaptSize over
// container/list, and Hyperbolic and LHD with a private index of resident
// IDs beside the store's, and S4LRU over four container/list segments.
// The registry now builds the first six as evict.Cache evictor kinds,
// TinyLFU and AdaptSize over an evict.Residents, Hyperbolic and LHD sample
// the store's own index, and S4LRU is a tiered cache of four equal tiers.

import (
	"container/list"
	"math"
	"math/rand"

	"lfo/internal/che"
	"lfo/internal/pq"
	"lfo/internal/sim"
	"lfo/internal/sketch"
	"lfo/internal/trace"
)

// referenceRandom admits everything and evicts uniformly random victims (RND in
// Fig 1 of the paper).
type referenceRandom struct {
	store *sim.Store[int] // payload: index into ids
	ids   []trace.ObjectID
	rng   *rand.Rand
}

// newReferenceRandom returns a random-eviction cache.
func newReferenceRandom(capacity, seed int64) *referenceRandom {
	return &referenceRandom{store: sim.NewStore[int](capacity), rng: rand.New(rand.NewSource(seed))}
}

// Name implements sim.Policy.
func (p *referenceRandom) Name() string { return "RND" }

// Request implements sim.Policy.
func (p *referenceRandom) Request(r trace.Request) bool {
	if p.store.Has(r.ID) {
		return true
	}
	if r.Size > p.store.Capacity() {
		return false
	}
	for !p.store.Fits(r.Size) {
		i := p.rng.Intn(len(p.ids))
		victim := p.ids[i]
		last := len(p.ids) - 1
		p.ids[i] = p.ids[last]
		p.store.Get(p.ids[i]).Payload = i
		p.ids = p.ids[:last]
		p.store.Remove(victim)
	}
	e := p.store.Add(r.ID, r.Size)
	e.Payload = len(p.ids)
	p.ids = append(p.ids, r.ID)
	return false
}

// referenceFIFO evicts in insertion order. The queue is threaded through the store
// entries, so admissions reuse recycled entries instead of allocating.
type referenceFIFO struct {
	store *sim.Store[links]
	queue entryList // head = oldest
}

// newReferenceFIFO returns a first-in-first-out cache.
func newReferenceFIFO(capacity int64) *referenceFIFO {
	return &referenceFIFO{store: sim.NewStore[links](capacity)}
}

// Name implements sim.Policy.
func (p *referenceFIFO) Name() string { return "FIFO" }

// Request implements sim.Policy.
func (p *referenceFIFO) Request(r trace.Request) bool {
	if p.store.Has(r.ID) {
		return true
	}
	if r.Size > p.store.Capacity() {
		return false
	}
	for !p.store.Fits(r.Size) {
		oldest := p.queue.head
		p.queue.remove(oldest)
		p.store.Remove(oldest.ID)
	}
	p.queue.pushBack(p.store.Add(r.ID, r.Size))
	return false
}

// referenceLRU evicts the least recently used object. The recency list is threaded
// through the store entries, so admissions reuse recycled entries instead
// of allocating.
type referenceLRU struct {
	store *sim.Store[links]
	lru   entryList // head = most recent
}

// newReferenceLRU returns a least-recently-used cache.
func newReferenceLRU(capacity int64) *referenceLRU {
	return &referenceLRU{store: sim.NewStore[links](capacity)}
}

// Name implements sim.Policy.
func (p *referenceLRU) Name() string { return "LRU" }

// Request implements sim.Policy.
func (p *referenceLRU) Request(r trace.Request) bool {
	if e := p.store.Get(r.ID); e != nil {
		p.lru.moveToFront(e)
		return true
	}
	if r.Size > p.store.Capacity() {
		return false
	}
	for !p.store.Fits(r.Size) {
		tail := p.lru.tail
		p.lru.remove(tail)
		p.store.Remove(tail.ID)
	}
	p.lru.pushFront(p.store.Add(r.ID, r.Size))
	return false
}

// referenceLFU evicts the least frequently used object (in-cache frequency).
type referenceLFU struct {
	store *sim.Store[int64] // payload: frequency
	pq    *pq.Queue
}

// newReferenceLFU returns a least-frequently-used cache.
func newReferenceLFU(capacity int64) *referenceLFU {
	return &referenceLFU{store: sim.NewStore[int64](capacity), pq: pq.New()}
}

// Name implements sim.Policy.
func (p *referenceLFU) Name() string { return "LFU" }

// Request implements sim.Policy.
func (p *referenceLFU) Request(r trace.Request) bool {
	if e := p.store.Get(r.ID); e != nil {
		e.Payload++
		p.pq.Update(r.ID, float64(e.Payload))
		return true
	}
	if r.Size > p.store.Capacity() {
		return false
	}
	for !p.store.Fits(r.Size) {
		id, _ := p.pq.PopMin()
		p.store.Remove(id)
	}
	e := p.store.Add(r.ID, r.Size)
	e.Payload = 1
	p.pq.Push(r.ID, 1)
	return false
}

// referenceLFUDA is LFU with Dynamic Aging (Arlitt et al. [4], Shah et al. [67]):
// an object's key is K_i = F_i + L where F_i is its in-cache frequency and
// L is a global age that jumps to the key of each evicted object. Aging
// lets formerly hot objects drain out after the workload shifts.
type referenceLFUDA struct {
	store *sim.Store[int64] // payload: frequency
	pq    *pq.Queue
	age   float64
}

// newReferenceLFUDA returns an LFU-with-dynamic-aging cache.
func newReferenceLFUDA(capacity int64) *referenceLFUDA {
	return &referenceLFUDA{store: sim.NewStore[int64](capacity), pq: pq.New()}
}

// Name implements sim.Policy.
func (p *referenceLFUDA) Name() string { return "LFUDA" }

// Request implements sim.Policy.
func (p *referenceLFUDA) Request(r trace.Request) bool {
	if e := p.store.Get(r.ID); e != nil {
		e.Payload++
		p.pq.Update(r.ID, float64(e.Payload)+p.age)
		return true
	}
	if r.Size > p.store.Capacity() {
		return false
	}
	for !p.store.Fits(r.Size) {
		id, key := p.pq.PopMin()
		p.age = key // dynamic aging: L := key of evicted object
		p.store.Remove(id)
	}
	e := p.store.Add(r.ID, r.Size)
	e.Payload = 1
	p.pq.Push(r.ID, 1+p.age)
	return false
}

// referenceGDSF is Greedy-Dual-Size-Frequency (Cherkasova [17]): priority
// H_i = L + F_i * C_i / S_i, evicting the minimum and aging L to the
// evicted priority. With C_i = S_i this favors frequency; with C_i = 1 it
// favors small objects (the classic OHR-optimizing configuration).
type referenceGDSF struct {
	store *sim.Store[gdsfMeta]
	pq    *pq.Queue
	age   float64
}

// gdsfMeta is stored by value in the entry payload: the store's entry
// freelist then recycles it with the entry, keeping admissions free of
// per-object metadata allocations.
type gdsfMeta struct {
	freq int64
	cost float64
}

// newReferenceGDSF returns a Greedy-Dual-Size-Frequency cache.
func newReferenceGDSF(capacity int64) *referenceGDSF {
	return &referenceGDSF{store: sim.NewStore[gdsfMeta](capacity), pq: pq.New()}
}

// Name implements sim.Policy.
func (p *referenceGDSF) Name() string { return "GDSF" }

func (p *referenceGDSF) priority(m gdsfMeta, size int64) float64 {
	return p.age + float64(m.freq)*m.cost/float64(size)
}

// Request implements sim.Policy.
func (p *referenceGDSF) Request(r trace.Request) bool {
	if e := p.store.Get(r.ID); e != nil {
		e.Payload.freq++
		e.Payload.cost = r.Cost
		p.pq.Update(r.ID, p.priority(e.Payload, e.Size))
		return true
	}
	if r.Size > p.store.Capacity() {
		return false
	}
	for !p.store.Fits(r.Size) {
		id, key := p.pq.PopMin()
		p.age = key
		p.store.Remove(id)
	}
	e := p.store.Add(r.ID, r.Size)
	e.Payload = gdsfMeta{freq: 1, cost: r.Cost}
	p.pq.Push(r.ID, p.priority(e.Payload, r.Size))
	return false
}

// links threads an intrusive doubly-linked list through store entry
// payloads, so recency/insertion-order policies need no per-request node
// allocation: the store recycles entries, and the list rides along.
type links struct {
	prev, next *sim.StoreEntry[links]
}

// entryList is the list head/tail over link-threaded store entries.
// Entries must be unlinked (remove) before sim.Store.Remove recycles them.
type entryList struct {
	head, tail *sim.StoreEntry[links]
}

func (l *entryList) pushFront(e *sim.StoreEntry[links]) {
	e.Payload.prev = nil
	e.Payload.next = l.head
	if l.head != nil {
		l.head.Payload.prev = e
	} else {
		l.tail = e
	}
	l.head = e
}

func (l *entryList) pushBack(e *sim.StoreEntry[links]) {
	e.Payload.next = nil
	e.Payload.prev = l.tail
	if l.tail != nil {
		l.tail.Payload.next = e
	} else {
		l.head = e
	}
	l.tail = e
}

func (l *entryList) remove(e *sim.StoreEntry[links]) {
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

func (l *entryList) moveToFront(e *sim.StoreEntry[links]) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// referenceTinyLFU (Einziger & Friedman [24]) wraps an LRU cache with a
// frequency-based admission filter: on a miss with a full cache, the
// candidate is admitted only if its sketched frequency exceeds that of the
// LRU victim it would displace. A doorkeeper Bloom filter absorbs one-hit
// wonders, and the sketch is halved every sample window to age estimates.
//
// TinyLFU is not part of the paper's Fig 6 line-up; it is included as the
// natural admission-control baseline for LFO's admission learning.
type referenceTinyLFU struct {
	store *sim.Store[*list.Element]
	lru   *list.List
	cm    *sketch.CountMin
	door  *sketch.Bloom

	sampleSize int
	samples    int
}

// newReferenceTinyLFU returns an LRU cache guarded by a TinyLFU admission filter.
func newReferenceTinyLFU(capacity int64) *referenceTinyLFU {
	// Sketch width proportional to the expected object count, assuming
	// ~16KB mean objects, clamped to a sane range.
	width := int(capacity / (16 << 10))
	if width < 1<<12 {
		width = 1 << 12
	}
	if width > 1<<22 {
		width = 1 << 22
	}
	return &referenceTinyLFU{
		store:      sim.NewStore[*list.Element](capacity),
		lru:        list.New(),
		cm:         sketch.NewCountMin(width, 4),
		door:       sketch.NewBloom(width*4, 3),
		sampleSize: width * 8,
	}
}

// Name implements sim.Policy.
func (p *referenceTinyLFU) Name() string { return "TinyLFU" }

// record counts an access in the doorkeeper/sketch hierarchy and returns
// the object's current frequency estimate.
func (p *referenceTinyLFU) record(id trace.ObjectID) byte {
	key := uint64(id)
	p.samples++
	if p.samples >= p.sampleSize {
		p.cm.Reset()
		p.door.Clear()
		p.samples = 0
	}
	if !p.door.Add(key) {
		// First sighting in this window: the doorkeeper absorbs it.
		return p.estimate(id)
	}
	p.cm.Add(key)
	return p.estimate(id)
}

// estimate returns the doorkeeper-aware frequency estimate.
func (p *referenceTinyLFU) estimate(id trace.ObjectID) byte {
	key := uint64(id)
	est := p.cm.Estimate(key)
	if p.door.Contains(key) && est < 15 {
		est++
	}
	return est
}

// Request implements sim.Policy.
func (p *referenceTinyLFU) Request(r trace.Request) bool {
	freq := p.record(r.ID)
	if e := p.store.Get(r.ID); e != nil {
		p.lru.MoveToFront(e.Payload)
		return true
	}
	if r.Size > p.store.Capacity() {
		return false
	}
	// Admission duel: candidate vs the victims it would displace.
	for !p.store.Fits(r.Size) {
		tail := p.lru.Back()
		victim := tail.Value.(trace.ObjectID)
		if p.estimate(victim) >= freq {
			return false // victim wins; candidate is not admitted
		}
		p.lru.Remove(tail)
		p.store.Remove(victim)
	}
	e := p.store.Add(r.ID, r.Size)
	e.Payload = p.lru.PushFront(r.ID)
	return false
}

// referenceAdaptSize (Berger, Sitaraman, Harchol-Balter, NSDI 2017 [12]) is LRU
// with probabilistic size-aware admission: a missed object of size s is
// admitted with probability e^{−s/c}. The size threshold c is re-tuned
// every tuning window by evaluating candidate values against a Che/Markov
// model of the observed request mix and keeping the candidate with the
// highest predicted object hit ratio.
type referenceAdaptSize struct {
	store *sim.Store[*list.Element]
	lru   *list.List
	rng   *rand.Rand

	c float64 // current admission parameter

	// Tuning-window statistics.
	window     int
	windowSeen int
	stats      map[trace.ObjectID]*asStat
}

// newReferenceAdaptSize returns an AdaptSize cache. The seed drives the admission
// coin flips.
func newReferenceAdaptSize(capacity, seed int64) *referenceAdaptSize {
	return &referenceAdaptSize{
		store:  sim.NewStore[*list.Element](capacity),
		lru:    list.New(),
		rng:    rand.New(rand.NewSource(seed)),
		c:      float64(capacity) / 100, // permissive start; tuned online
		window: 50000,
		stats:  make(map[trace.ObjectID]*asStat, 4096),
	}
}

// Name implements sim.Policy.
func (p *referenceAdaptSize) Name() string { return "AdaptSize" }

// retune evaluates candidate c values on the window's statistics with the
// Che approximation and adopts the OHR-maximizing candidate.
func (p *referenceAdaptSize) retune() {
	objs := make([]che.Object, 0, len(p.stats))
	for _, s := range p.stats {
		objs = append(objs, che.Object{
			Rate: float64(s.count) / float64(p.windowSeen),
			Size: float64(s.size),
		})
	}
	if len(objs) == 0 {
		return
	}
	bestC, bestOHR := p.c, -1.0
	// Log-spaced candidates from 256 B to 4× capacity.
	for c := 256.0; c <= 4*float64(p.store.Capacity()); c *= 2 {
		for i := range objs {
			objs[i].PAdmit = math.Exp(-objs[i].Size / c)
		}
		ohr, _ := che.Ratios(objs, float64(p.store.Capacity()))
		if ohr > bestOHR {
			bestOHR, bestC = ohr, c
		}
	}
	p.c = bestC
	p.stats = make(map[trace.ObjectID]*asStat, len(p.stats))
	p.windowSeen = 0
}

// Request implements sim.Policy.
func (p *referenceAdaptSize) Request(r trace.Request) bool {
	// Window statistics.
	st := p.stats[r.ID]
	if st == nil {
		st = &asStat{size: r.Size}
		p.stats[r.ID] = st
	}
	st.count++
	p.windowSeen++
	if p.windowSeen >= p.window {
		p.retune()
	}

	if e := p.store.Get(r.ID); e != nil {
		p.lru.MoveToFront(e.Payload)
		return true
	}
	if r.Size > p.store.Capacity() {
		return false
	}
	// Probabilistic size-aware admission.
	if p.rng.Float64() >= math.Exp(-float64(r.Size)/p.c) {
		return false
	}
	for !p.store.Fits(r.Size) {
		tail := p.lru.Back()
		id := tail.Value.(trace.ObjectID)
		p.lru.Remove(tail)
		p.store.Remove(id)
	}
	e := p.store.Add(r.ID, r.Size)
	e.Payload = p.lru.PushFront(r.ID)
	return false
}

// referenceHyperbolic is Hyperbolic caching (Blankstein, Sen, Freedman, ATC 2017 [13]) ranks
// objects by frequency divided by time in cache, which — unlike LRU or
// LFU — has no fixed decay shape. Eviction samples a set of resident
// objects and drops the minimum-priority one. Priorities are divided by
// size so large objects must earn their keep (the paper's size-aware
// variant).
type referenceHyperbolic struct {
	store *sim.Store[int] // payload: index into ids
	ids   []trace.ObjectID
	meta  map[trace.ObjectID]*referenceHypMeta
	rng   *rand.Rand
	clock int64
}

type referenceHypMeta struct {
	freq    int64
	arrival int64
}

// newReferenceHyperbolic returns a hyperbolic cache with sampled eviction.
func newReferenceHyperbolic(capacity, seed int64) *referenceHyperbolic {
	return &referenceHyperbolic{
		store: sim.NewStore[int](capacity),
		meta:  make(map[trace.ObjectID]*referenceHypMeta, 1024),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Name implements sim.Policy.
func (p *referenceHyperbolic) Name() string { return "Hyperbolic" }

// priority is the hyperbolic rank: frequency per unit time in cache, per
// byte.
func (p *referenceHyperbolic) priority(id trace.ObjectID, size int64) float64 {
	m := p.meta[id]
	age := p.clock - m.arrival
	if age < 1 {
		age = 1
	}
	return float64(m.freq) / (float64(age) * float64(size))
}

// evictOne removes the lowest-priority object among a random sample.
func (p *referenceHyperbolic) evictOne() {
	var victim trace.ObjectID
	best := -1.0
	n := evictionSamples
	if n > len(p.ids) {
		n = len(p.ids)
	}
	for i := 0; i < n; i++ {
		id := p.ids[p.rng.Intn(len(p.ids))]
		e := p.store.Get(id)
		pr := p.priority(id, e.Size)
		if best < 0 || pr < best {
			best, victim = pr, id
		}
	}
	vi := p.store.Get(victim).Payload
	last := len(p.ids) - 1
	p.ids[vi] = p.ids[last]
	p.store.Get(p.ids[vi]).Payload = vi
	p.ids = p.ids[:last]
	p.store.Remove(victim)
	delete(p.meta, victim)
}

// Request implements sim.Policy.
func (p *referenceHyperbolic) Request(r trace.Request) bool {
	p.clock++
	if p.store.Has(r.ID) {
		p.meta[r.ID].freq++
		return true
	}
	if r.Size > p.store.Capacity() {
		return false
	}
	for !p.store.Fits(r.Size) {
		p.evictOne()
	}
	e := p.store.Add(r.ID, r.Size)
	e.Payload = len(p.ids)
	p.ids = append(p.ids, r.ID)
	p.meta[r.ID] = &referenceHypMeta{freq: 1, arrival: p.clock}
	return false
}

// referenceLHD is LHD (Beckmann, Chen, Cidon, NSDI 2018 [7]) evicts by lowest hit
// density: the expected hits per byte·time an object will deliver if kept.
// The implementation follows the paper's structure — per-class age
// histograms of hits and evictions, periodically folded into a hit-density
// table with exponential decay, and sampled eviction of the
// minimum-density candidate. Classes here are log2-size classes.
type referenceLHD struct {
	store *sim.Store[int]
	ids   []trace.ObjectID
	meta  map[trace.ObjectID]*referenceLHDMeta
	rng   *rand.Rand
	clock int64

	hits      [lhdSizeClasses][lhdAgeBuckets + 1]float64
	evictions [lhdSizeClasses][lhdAgeBuckets + 1]float64
	density   [lhdSizeClasses][lhdAgeBuckets + 1]float64
	accesses  int
}

type referenceLHDMeta struct {
	lastAccess int64
	class      int
}

// newReferenceLHD returns a hit-density cache with sampled eviction.
func newReferenceLHD(capacity, seed int64) *referenceLHD {
	p := &referenceLHD{
		store: sim.NewStore[int](capacity),
		meta:  make(map[trace.ObjectID]*referenceLHDMeta, 1024),
		rng:   rand.New(rand.NewSource(seed)),
	}
	// Optimistic priors: young objects look promising until data says
	// otherwise.
	for c := 0; c < lhdSizeClasses; c++ {
		for a := 0; a <= lhdAgeBuckets; a++ {
			p.density[c][a] = 1 / float64(a+1)
		}
	}
	return p
}

// Name implements sim.Policy.
func (p *referenceLHD) Name() string { return "LHD" }

func (p *referenceLHD) ageBucket(lastAccess int64) int {
	a := (p.clock - lastAccess) >> lhdAgeShift
	if a > lhdAgeBuckets {
		a = lhdAgeBuckets
	}
	return int(a)
}

// reconfigure folds the hit/eviction histograms into the density table:
// density(a) = expected hits beyond age a per unit of remaining lifetime,
// then decays the histograms.
func (p *referenceLHD) reconfigure() {
	for c := 0; c < lhdSizeClasses; c++ {
		// Backward scan maintaining, for each age a:
		//   cumHits     = Σ_{t≥a} hits[t]
		//   tail        = Σ_{t>a} (hits[t]+evictions[t])
		//   cumLifetime = Σ_{t≥a} (hits[t]+evictions[t])·(t−a+1)
		// using L(a) = L(a+1) + tail(a+1) + events[a].
		var cumHits, tail, cumLifetime float64
		for a := lhdAgeBuckets; a >= 0; a-- {
			events := p.hits[c][a] + p.evictions[c][a]
			cumHits += p.hits[c][a]
			cumLifetime += tail + events
			tail += events
			if cumLifetime > 0 {
				p.density[c][a] = cumHits / cumLifetime
			}
		}
		for a := 0; a <= lhdAgeBuckets; a++ {
			p.hits[c][a] *= lhdEWMADecay
			p.evictions[c][a] *= lhdEWMADecay
		}
	}
}

// hitDensity is the per-byte density of a resident object now.
func (p *referenceLHD) hitDensity(id trace.ObjectID, size int64) float64 {
	m := p.meta[id]
	return p.density[m.class][p.ageBucket(m.lastAccess)] / float64(size)
}

func (p *referenceLHD) evictOne() {
	var victim trace.ObjectID
	best := math.Inf(1)
	n := evictionSamples
	if n > len(p.ids) {
		n = len(p.ids)
	}
	for i := 0; i < n; i++ {
		id := p.ids[p.rng.Intn(len(p.ids))]
		e := p.store.Get(id)
		if d := p.hitDensity(id, e.Size); d < best {
			best, victim = d, id
		}
	}
	m := p.meta[victim]
	p.evictions[m.class][p.ageBucket(m.lastAccess)]++
	vi := p.store.Get(victim).Payload
	last := len(p.ids) - 1
	p.ids[vi] = p.ids[last]
	p.store.Get(p.ids[vi]).Payload = vi
	p.ids = p.ids[:last]
	p.store.Remove(victim)
	delete(p.meta, victim)
}

// Request implements sim.Policy.
func (p *referenceLHD) Request(r trace.Request) bool {
	p.clock++
	p.accesses++
	if p.accesses%lhdReconfigure == 0 {
		p.reconfigure()
	}
	if p.store.Has(r.ID) {
		m := p.meta[r.ID]
		p.hits[m.class][p.ageBucket(m.lastAccess)]++
		m.lastAccess = p.clock
		return true
	}
	if r.Size > p.store.Capacity() {
		return false
	}
	for !p.store.Fits(r.Size) {
		p.evictOne()
	}
	e := p.store.Add(r.ID, r.Size)
	e.Payload = len(p.ids)
	p.ids = append(p.ids, r.ID)
	p.meta[r.ID] = &referenceLHDMeta{lastAccess: p.clock, class: lhdClass(r.Size)}
	return false
}

// referenceS4LRU is segmented LRU with four equally sized segments. Objects enter
// the lowest segment; a hit promotes an object to the head of the next
// higher segment. When a segment overflows, its tail demotes to the head
// of the segment below; overflow of the lowest segment evicts.
type referenceS4LRU struct {
	store    *sim.Store[*referenceS4Meta]
	segs     [s4Segments]*list.List // front = most recent
	segBytes [s4Segments]int64
	segCap   int64
}

type referenceS4Meta struct {
	id   trace.ObjectID
	elem *list.Element
	seg  int
	size int64
}

// newReferenceS4LRU returns a four-segment segmented-LRU cache.
func newReferenceS4LRU(capacity int64) *referenceS4LRU {
	p := &referenceS4LRU{store: sim.NewStore[*referenceS4Meta](capacity), segCap: capacity / s4Segments}
	if p.segCap < 1 {
		p.segCap = 1
	}
	for i := range p.segs {
		p.segs[i] = list.New()
	}
	return p
}

// Name implements sim.Policy.
func (p *referenceS4LRU) Name() string { return "S4LRU" }

// insert places an object at the head of segment s and rebalances
// overflow downwards, evicting from segment 0.
func (p *referenceS4LRU) insert(m *referenceS4Meta, s int) {
	m.seg = s
	m.elem = p.segs[s].PushFront(m)
	p.segBytes[s] += m.size
	// Cascade overflow down the segments.
	for i := s; i >= 1; i-- {
		for p.segBytes[i] > p.segCap {
			tail := p.segs[i].Back()
			tm := tail.Value.(*referenceS4Meta)
			p.segs[i].Remove(tail)
			p.segBytes[i] -= tm.size
			tm.seg = i - 1
			tm.elem = p.segs[i-1].PushFront(tm)
			p.segBytes[i-1] += tm.size
		}
	}
	p.evictOverflow()
}

// evictOverflow evicts from segment 0 while the total exceeds capacity.
func (p *referenceS4LRU) evictOverflow() {
	for p.store.Used() > p.store.Capacity() || p.segBytes[0] > p.segCap {
		tail := p.segs[0].Back()
		if tail == nil {
			return
		}
		tm := tail.Value.(*referenceS4Meta)
		p.segs[0].Remove(tail)
		p.segBytes[0] -= tm.size
		p.store.Remove(tm.id)
	}
}

// Request implements sim.Policy.
func (p *referenceS4LRU) Request(r trace.Request) bool {
	if e := p.store.Get(r.ID); e != nil {
		m := e.Payload
		// Promote to the next segment (capped at the top).
		p.segs[m.seg].Remove(m.elem)
		p.segBytes[m.seg] -= m.size
		next := m.seg + 1
		if next >= s4Segments {
			next = s4Segments - 1
		}
		p.insert(m, next)
		return true
	}
	if r.Size > p.store.Capacity() || r.Size > p.segCap {
		return false
	}
	e := p.store.Add(r.ID, r.Size)
	m := &referenceS4Meta{size: r.Size, id: r.ID}
	e.Payload = m
	p.insert(m, 0)
	return false
}
