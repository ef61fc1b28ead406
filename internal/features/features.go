// Package features tracks the online features LFO feeds its learner
// (§2.2 of the paper):
//
//   - object size
//   - most recent retrieval cost
//   - currently free (available) bytes in the cache
//   - the time gaps between the last NumGaps consecutive requests to the
//     object
//
// Gaps are inter-arrival times, not absolute recency: except for the most
// recent gap they are shift invariant, which the paper argues is important
// for robustness (contrast with LRU-K's absolute reference times).
//
// Per-object state costs what the object has earned. A first request takes
// a 24-byte slot (last request time, cost) and an index entry: 24 bytes for
// the objects never requested again. The second adds a 16-byte ring of four
// 32-bit gaps, 40 bytes to the fifth request; the sixth, which brings the
// fifth gap, moves them to a 196-byte ring of NumGaps-1 and gives the short
// ring back; the fiftieth adds nothing — 220 bytes against the paper's
// 208-byte-per-object accounting. Slots and rings live in pointer-free slabs
// under a map bounded by MaxObjects with oldest-last-use eviction.
package features

import (
	"maps"
	"math"

	"lfo/internal/trace"
)

// NumGaps is the request-history depth per object (the paper uses the last
// 50 requests).
const NumGaps = 50

// Feature vector layout.
const (
	// FeatSize is the object size in bytes.
	FeatSize = 0
	// FeatCost is the most recent retrieval cost.
	FeatCost = 1
	// FeatFree is the cache's free bytes at request time.
	FeatFree = 2
	// FeatGap0 is the first gap feature (time since the previous request
	// to this object); gap i lives at FeatGap0 + i.
	FeatGap0 = 3
	// Dim is the feature vector dimension.
	Dim = FeatGap0 + NumGaps
)

// Missing marks absent feature values (e.g. gap 7 of an object seen twice).
// It is NaN; the learner routes missing values down a learned default
// branch, like LightGBM.
var Missing = math.NaN()

// missingGaps is the NaN tail of a row: one copy fills the history an
// object does not have.
var missingGaps [NumGaps]float64

func init() {
	for i := range missingGaps {
		missingGaps[i] = Missing
	}
}

// slot is an object's fixed state, 24 bytes and no pointer: all a first
// sight costs. n counts the object's stored gaps and says which slab ring
// indexes: none at n = 0 (there is no gap to store), the short rings for
// 1 to shortGaps, the long ones from there on.
type slot struct {
	lastTime int64
	cost     float64
	ring     int32
	n        uint8
}

// gapRing is an object's historical inter-arrival gaps, newest first, as
// saturating uint32s: 196 bytes. Only the first slot.n entries are read, so
// a recycled ring is not cleared; a free one links the free list through [0].
type gapRing [NumGaps - 1]uint32

// shortRing holds the first shortGaps gaps the same way, 16 bytes: most
// objects requested more than once are never requested five times, and
// never need the long ring.
type shortRing [shortGaps]uint32

const shortGaps = 4

// none marks a slot without a ring and ends a free list of rings.
const none = -1

// slab is a grow-only array of T addressed by int32 and stored in chunks,
// so growing it moves nothing and reserves less than one chunk ahead. The
// chunks are small: a tracker of a handful of objects (one per server
// connection) stays at a few KB.
type slab[T any] struct {
	chunks []*[chunkLen]T
	n      int32 // entries handed out
}

const chunkLen = 16

func (s *slab[T]) at(i int32) *T { return &s.chunks[uint32(i)/chunkLen][uint32(i)%chunkLen] }

// grow extends the slab by one zero entry and returns its index.
func (s *slab[T]) grow() int32 {
	if int(s.n) == len(s.chunks)*chunkLen {
		//lfolint:ignore hotpath-alloc slab miss: one chunk per 16 new peak-tracked objects, recycled through the free list forever after
		s.chunks = append(s.chunks, new([chunkLen]T))
	}
	s.n++
	return s.n - 1
}

func (s *slab[T]) clone() slab[T] {
	c := slab[T]{chunks: make([]*[chunkLen]T, len(s.chunks)), n: s.n}
	for i, chunk := range s.chunks {
		dup := *chunk
		c.chunks[i] = &dup
	}
	return c
}

// ringSlab is a slab of one ring size and the list of its rings given back,
// which a take reuses before the slab grows.
type ringSlab[R shortRing | gapRing] struct {
	slab[R]
	free int32 // heads the free list, linked through each free ring's [0]
	held int   // rings taken and not put back
}

func newRingSlab[R shortRing | gapRing]() ringSlab[R] { return ringSlab[R]{free: none} }

func (s *ringSlab[R]) take() int32 {
	s.held++
	if i := s.free; i != none {
		s.free = int32((*s.at(i))[0])
		return i
	}
	return s.grow()
}

func (s *ringSlab[R]) put(i int32) {
	(*s.at(i))[0] = uint32(s.free)
	s.free = i
	s.held--
}

// Tracker maintains per-object request history.
type Tracker struct {
	// index maps a tracked object to its slot. Neither it nor the slabs
	// hold a pointer, so the collector never walks per-object state.
	index map[trace.ObjectID]int32
	slots slab[slot]
	// short and long hold the gap rings. A ring is given back when its
	// object outgrows it or a bounded tracker evicts the object, and a
	// freed slot goes to the evicting insert.
	short ringSlab[shortRing]
	long  ringSlab[gapRing]
	// maxObjects bounds the sparse feature store; 0 means unbounded.
	maxObjects int
	// evictHeap orders tracked objects by lastTime for state eviction. It
	// holds exactly one entry per tracked object, pushed at first sight and
	// refreshed lazily: a re-request leaves the entry stale, and evictOldest
	// re-pushes a stale entry under the object's current lastTime instead of
	// evicting on it. An unbounded tracker never evicts, so it keeps no heap.
	evictHeap ageHeap
}

// NewTracker returns a tracker bounded to maxObjects tracked objects
// (0 = unbounded).
func NewTracker(maxObjects int) *Tracker {
	return &Tracker{index: map[trace.ObjectID]int32{}, short: newRingSlab[shortRing](), long: newRingSlab[gapRing](), maxObjects: maxObjects}
}

// Clone returns a deep copy of the tracker: mutating the clone (or the
// original) never affects the other.
func (t *Tracker) Clone() *Tracker {
	c := *t
	c.index = maps.Clone(t.index)
	c.slots = t.slots.clone()
	c.short.slab = t.short.slab.clone()
	c.long.slab = t.long.slab.clone()
	c.evictHeap = append(ageHeap(nil), t.evictHeap...)
	return &c
}

// Len returns the number of objects with tracked state.
func (t *Tracker) Len() int { return len(t.index) }

// Rings returns the number of tracked objects requested twice or more.
func (t *Tracker) Rings() int { return t.short.held + t.long.held }

// Bytes returns the memory behind the per-object state: the capacity of the
// slot slab (24-byte entries), the two ring slabs (16 and 196) and the
// eviction heap (16) — 24 bytes an object at one request, 40 to the fifth
// and 220 from the sixth, with slack below a chunk a slab. The index map,
// whose size the runtime does not report, is not included.
func (t *Tracker) Bytes() int64 {
	return chunkLen*int64(len(t.slots.chunks)*24+len(t.short.chunks)*4*shortGaps+len(t.long.chunks)*4*(NumGaps-1)) +
		int64(cap(t.evictHeap))*16
}

// slotOf returns the object's slot, nil when it is not tracked.
func (t *Tracker) slotOf(id trace.ObjectID) *slot {
	if i, ok := t.index[id]; ok {
		return t.slots.at(i)
	}
	return nil
}

// Features fills dst (length Dim) with the feature vector for a request
// arriving at time now, given the cache's current free bytes. It does not
// modify tracker state; call Update afterwards.
func (t *Tracker) Features(r trace.Request, freeBytes int64, dst []float64) {
	t.row(t.slotOf(r.ID), r, freeBytes, dst)
}

// FeaturesByID fills dst with the feature vector an object would have if
// probed at time now — used to re-score resident objects after a model
// swap, where no request for the object is in flight. The cost feature
// comes from the object's tracked retrieval cost (0 if untracked).
func (t *Tracker) FeaturesByID(id trace.ObjectID, size, now, freeBytes int64, dst []float64) {
	t.row(t.slotOf(id), trace.Request{Time: now, ID: id, Size: size}, freeBytes, dst)
}

// Update records the request into the object's history.
func (t *Tracker) Update(r trace.Request) {
	if s := t.slotOf(r.ID); s != nil {
		t.record(s, r)
	} else {
		t.insert(r)
	}
}

// Observe is Features followed by Update with one index lookup: dst takes
// the row as the tracker stood before the request, which is then recorded.
// It returns the row's width, FeatGap0 plus the gaps the object has: the
// cells of dst from there on are Missing.
func (t *Tracker) Observe(r trace.Request, freeBytes int64, dst []float64) int {
	s := t.slotOf(r.ID)
	w := t.row(s, r, freeBytes, dst)
	if s != nil {
		t.record(s, r)
	} else {
		t.insert(r)
	}
	return w
}

// row writes the row of a request to the object in s (nil: untracked, so
// there is no gap to report) and returns its width.
//
//lfo:hotpath
func (t *Tracker) row(s *slot, r trace.Request, freeBytes int64, dst []float64) int {
	if len(dst) < Dim {
		panic("features: dst smaller than Dim")
	}
	dst[FeatSize] = float64(r.Size)
	dst[FeatCost] = r.Cost
	dst[FeatFree] = float64(freeBytes)
	gaps, n := dst[FeatGap0:Dim], 0
	if s != nil {
		if s.cost != 0 {
			dst[FeatCost] = s.cost
		}
		// Gap 1: time since the object's previous request (the only
		// non-shift-invariant gap).
		gaps[0] = float64(r.Time - s.lastTime)
		var hist []uint32
		switch {
		case s.n == 0:
		case s.n <= shortGaps:
			hist = t.short.at(s.ring)[:s.n]
		default:
			hist = t.long.at(s.ring)[:s.n]
		}
		for i, g := range hist {
			gaps[1+i] = float64(g)
		}
		n = 1 + len(hist)
	}
	copy(gaps[n:], missingGaps[:])
	return FeatGap0 + n
}

// record shifts the gap since the tracked object's previous request into
// its ring, newest first: a short ring from the second request, a long one
// from the gap that would overflow the short ring, which is given back.
//
//lfo:hotpath
func (t *Tracker) record(s *slot, r trace.Request) {
	gap := saturate32(r.Time - s.lastTime)
	switch {
	case s.n < shortGaps:
		if s.n == 0 {
			s.ring = t.short.take()
		}
		g := t.short.at(s.ring)
		copy(g[1:], g[:s.n])
		g[0] = gap
		s.n++
	case s.n == shortGaps:
		i := t.long.take()
		g := t.long.at(i)
		copy(g[1:], t.short.at(s.ring)[:])
		g[0] = gap
		t.short.put(s.ring)
		s.ring = i
		s.n++
	default:
		g := t.long.at(s.ring)
		copy(g[1:], g[:s.n])
		g[0] = gap
		if s.n < NumGaps-1 {
			s.n++
		}
	}
	s.lastTime = r.Time
	s.cost = r.Cost
}

// insert starts tracking r's object, evicting the least recently requested
// one first when the tracker is at its bound.
func (t *Tracker) insert(r trace.Request) {
	i := int32(none)
	if t.maxObjects > 0 {
		if len(t.index) >= t.maxObjects {
			i = t.evictOldest()
		}
		t.evictHeap.push(ageEntry{id: r.ID, lastTime: r.Time})
	}
	if i == none {
		i = t.slots.grow()
	}
	*t.slots.at(i) = slot{lastTime: r.Time, cost: r.Cost, ring: none}
	t.index[r.ID] = i
}

// evictOldest drops the least-recently-requested object's state, gives its
// ring back and returns its slot (none when nothing is tracked). An entry
// whose object has been requested since it was pushed goes back under the
// object's current lastTime, so the first entry found current is the minimum
// over every tracked object as long as no object's time stepped back
// (trace.Read rejects traces where one does; on the wire an out-of-order
// client only makes its own connection's victim approximate).
func (t *Tracker) evictOldest() int32 {
	for len(t.evictHeap) > 0 {
		e := t.evictHeap.pop()
		i := t.index[e.id]
		s := t.slots.at(i)
		if s.lastTime != e.lastTime {
			t.evictHeap.push(ageEntry{id: e.id, lastTime: s.lastTime})
			continue
		}
		delete(t.index, e.id)
		switch {
		case s.n == 0:
		case s.n <= shortGaps:
			t.short.put(s.ring)
		default:
			t.long.put(s.ring)
		}
		return i
	}
	return none
}

func saturate32(v int64) uint32 {
	if v < 0 {
		return 0
	}
	if v > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v)
}

// ageEntry orders objects by last request time.
type ageEntry struct {
	id       trace.ObjectID
	lastTime int64
}

// ageHeap is a binary min-heap on lastTime. Being typed, it moves no entry
// through an interface, so a push allocates only when the slice grows.
type ageHeap []ageEntry

func (h *ageHeap) push(e ageEntry) {
	*h = append(*h, e)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].lastTime < s[i].lastTime) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *ageHeap) pop() ageEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].lastTime < s[j].lastTime {
			j = j2
		}
		if !(s[j].lastTime < s[i].lastTime) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// Names returns human-readable feature names indexed by feature position,
// used by the Fig 8 importance report.
func Names() []string {
	names := make([]string, Dim)
	names[FeatSize] = "size"
	names[FeatCost] = "cost"
	names[FeatFree] = "free"
	for i := 0; i < NumGaps; i++ {
		names[FeatGap0+i] = gapName(i + 1)
	}
	return names
}

func gapName(i int) string {
	return "gap" + itoa(i)
}

// itoa avoids strconv for this tiny use.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
