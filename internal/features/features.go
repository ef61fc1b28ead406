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
// Per-object state is a fixed ring of 32-bit gaps plus the last request
// time — mirroring the paper's 208-byte-per-object accounting — held in a
// sparse map bounded by MaxObjects with oldest-last-use eviction.
package features

import (
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

// objectState is the per-object history. Gap ring entries are saturating
// uint32s, keeping per-object state near the paper's 208-byte budget.
type objectState struct {
	lastTime int64
	cost     float64
	gaps     [NumGaps - 1]uint32 // historical inter-arrival gaps, newest first
	n        uint8               // number of valid entries in gaps
}

// Tracker maintains per-object request history.
type Tracker struct {
	objects map[trace.ObjectID]*objectState
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
	return &Tracker{
		objects:    make(map[trace.ObjectID]*objectState, 1024),
		maxObjects: maxObjects,
	}
}

// Clone returns a deep copy of the tracker: mutating the clone (or the
// original) never affects the other.
func (t *Tracker) Clone() *Tracker {
	c := &Tracker{
		objects:    make(map[trace.ObjectID]*objectState, len(t.objects)),
		maxObjects: t.maxObjects,
		evictHeap:  append(ageHeap(nil), t.evictHeap...),
	}
	for id, st := range t.objects {
		dup := *st
		c.objects[id] = &dup
	}
	return c
}

// Len returns the number of objects with tracked state.
func (t *Tracker) Len() int { return len(t.objects) }

// Features fills dst (length Dim) with the feature vector for a request
// arriving at time now, given the cache's current free bytes. It does not
// modify tracker state; call Update afterwards.
func (t *Tracker) Features(r trace.Request, freeBytes int64, dst []float64) {
	if len(dst) < Dim {
		panic("features: dst smaller than Dim")
	}
	dst[FeatSize] = float64(r.Size)
	dst[FeatCost] = r.Cost
	dst[FeatFree] = float64(freeBytes)
	st := t.objects[r.ID]
	if st == nil {
		for i := 0; i < NumGaps; i++ {
			dst[FeatGap0+i] = Missing
		}
		return
	}
	// Gap 1: time since the object's previous request (the only
	// non-shift-invariant gap).
	dst[FeatGap0] = float64(r.Time - st.lastTime)
	for i := 0; i < NumGaps-1; i++ {
		if i < int(st.n) {
			dst[FeatGap0+1+i] = float64(st.gaps[i])
		} else {
			dst[FeatGap0+1+i] = Missing
		}
	}
	if st.cost != 0 {
		dst[FeatCost] = st.cost
	}
}

// FeaturesByID fills dst with the feature vector an object would have if
// probed at time now — used to re-score resident objects after a model
// swap, where no request for the object is in flight. The cost feature
// comes from the object's tracked retrieval cost (0 if untracked).
func (t *Tracker) FeaturesByID(id trace.ObjectID, size, now, freeBytes int64, dst []float64) {
	r := trace.Request{Time: now, ID: id, Size: size}
	if st := t.objects[id]; st != nil {
		r.Cost = st.cost
	}
	t.Features(r, freeBytes, dst)
}

// Update records the request into the object's history.
func (t *Tracker) Update(r trace.Request) {
	st := t.objects[r.ID]
	if st == nil {
		if t.maxObjects > 0 && len(t.objects) >= t.maxObjects {
			t.evictOldest()
		}
		st = &objectState{lastTime: r.Time, cost: r.Cost}
		t.objects[r.ID] = st
		if t.maxObjects > 0 {
			t.evictHeap.push(ageEntry{id: r.ID, lastTime: r.Time})
		}
		return
	}
	gap := r.Time - st.lastTime
	// Shift the gap ring: newest first.
	copy(st.gaps[1:], st.gaps[:len(st.gaps)-1])
	st.gaps[0] = saturate32(gap)
	if st.n < NumGaps-1 {
		st.n++
	}
	st.lastTime = r.Time
	st.cost = r.Cost
}

// evictOldest drops the least-recently-requested object's state. An entry
// whose object has been requested since it was pushed goes back under the
// object's current lastTime, so the first entry found current is the
// minimum over every tracked object as long as no object's time stepped
// back (trace.Read rejects traces where one does; on the wire an
// out-of-order client only makes its own connection's victim approximate).
func (t *Tracker) evictOldest() {
	for len(t.evictHeap) > 0 {
		e := t.evictHeap.pop()
		if st := t.objects[e.id]; st.lastTime != e.lastTime {
			t.evictHeap.push(ageEntry{id: e.id, lastTime: st.lastTime})
			continue
		}
		delete(t.objects, e.id)
		return
	}
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
