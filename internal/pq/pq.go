// Package pq provides an indexed min-heap over cache objects keyed by a
// float64 priority, supporting O(log n) update and removal by object ID.
// It backs internal/evict's queues — the score-ranked queue LFO, LRU-K
// and OGD's integral cache key, and the GDSF, LFUDA and LFU evictor — and
// the fractional allocation of ogd.Learner.
package pq

import (
	"fmt"

	"lfo/internal/trace"
)

// entry is an element of Queue.
type entry struct {
	id    trace.ObjectID
	prio  float64
	tie   uint64 // insertion sequence breaks priority ties deterministically
	index int
}

// Queue is an indexed min-heap over objects keyed by float64 priority,
// supporting O(log n) update and removal by object ID. Equal priorities
// leave in order of their last Push or Update.
type Queue struct {
	items []*entry
	byID  map[trace.ObjectID]*entry
	seq   uint64
	// removed entries recycled by Push; bounds steady-state allocation to
	// the peak queue length instead of one allocation per admission.
	free []*entry
}

// New returns an empty queue.
func New() *Queue {
	return &Queue{byID: make(map[trace.ObjectID]*entry, 1024)}
}

func (q *Queue) Len() int { return len(q.items) }

// Push inserts an object with a priority. Panics on duplicate ID.
func (q *Queue) Push(id trace.ObjectID, prio float64) {
	if _, ok := q.byID[id]; ok {
		panic(fmt.Sprintf("pq: Queue duplicate id %d", id))
	}
	q.seq++
	var e *entry
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free = q.free[:n-1]
		e.id, e.prio, e.tie, e.index = id, prio, q.seq, len(q.items)
	} else {
		//lfolint:ignore hotpath-alloc freelist miss: one entry per new peak queue length, recycled forever after
		e = &entry{id: id, prio: prio, tie: q.seq, index: len(q.items)}
	}
	//lfolint:ignore hotpath-alloc heap storage grows to the peak resident count, then stays
	q.items = append(q.items, e)
	q.byID[id] = e
	q.up(e.index)
}

// Update changes an object's priority. Panics if absent.
func (q *Queue) Update(id trace.ObjectID, prio float64) {
	e, ok := q.byID[id]
	if !ok {
		panic(fmt.Sprintf("pq: Queue update of missing id %d", id))
	}
	e.prio = prio
	q.seq++
	e.tie = q.seq
	q.down(e.index)
	q.up(e.index)
}

// Remove deletes an object. Panics if absent.
func (q *Queue) Remove(id trace.ObjectID) {
	e, ok := q.byID[id]
	if !ok {
		panic(fmt.Sprintf("pq: Queue remove of missing id %d", id))
	}
	q.removeAt(e.index)
}

// Min returns the lowest-priority object without removing it. Panics on
// empty queue.
func (q *Queue) Min() (trace.ObjectID, float64) {
	e := q.items[0]
	return e.id, e.prio
}

// PopMin removes and returns the lowest-priority object.
func (q *Queue) PopMin() (trace.ObjectID, float64) {
	e := q.items[0]
	q.removeAt(0)
	return e.id, e.prio
}

// Priority returns an object's priority and whether it is present.
func (q *Queue) Priority(id trace.ObjectID) (float64, bool) {
	e, ok := q.byID[id]
	if !ok {
		return 0, false
	}
	return e.prio, true
}

func (q *Queue) removeAt(i int) {
	e := q.items[i]
	last := len(q.items) - 1
	q.swap(i, last)
	q.items = q.items[:last]
	delete(q.byID, e.id)
	// Recycle the entry. Its fields stay intact until the next Push, so
	// PopMin may still read id/prio after this returns.
	//lfolint:ignore hotpath-alloc freelist backing array grows to the peak queue length, then recycles
	q.free = append(q.free, e)
	if i < last {
		q.down(i)
		q.up(i)
	}
}

func (q *Queue) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.tie < b.tie
}

func (q *Queue) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].index = i
	q.items[j].index = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.swap(i, p)
		i = p
	}
}

func (q *Queue) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.less(l, small) {
			small = l
		}
		if r < n && q.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		q.swap(i, small)
		i = small
	}
}
