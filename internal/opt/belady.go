package opt

import (
	"container/heap"

	"lfo/internal/trace"
)

// Belady simulates Belady's MIN algorithm: on each miss with a full cache,
// evict the resident object whose next request is furthest in the future.
// Belady is provably optimal for the object hit ratio when all objects
// have equal sizes; the opt package uses it to anchor correctness tests of
// the sweep and greedy solvers (footnote 6 of the paper: in settings with
// unit sizes, computing OPT is simple).
//
// capacity is expressed in bytes, like Config.CacheSize; with unit-size
// objects it equals the object count.
func Belady(tr *trace.Trace, capacity int64) *Result {
	n := tr.Len()
	next := tr.NextRequestIndex()
	res := &Result{
		Admit: make([]bool, n),
		Hit:   make([]bool, n),
	}

	resident := make(map[trace.ObjectID]int, 1024) // id -> heap position is not tracked; use lazy deletion
	// Max-heap on nextUse with lazy invalidation: stale entries are
	// skipped when popped.
	h := &beladyHeap{}
	current := make(map[trace.ObjectID]int) // id -> current nextUse (validity check)
	var used int64

	evictToFit := func(need int64) bool {
		for used+need > capacity {
			for h.Len() > 0 {
				top := (*h)[0]
				if cur, ok := current[top.id]; !ok || cur != top.nextUse {
					heap.Pop(h) // stale
					continue
				}
				break
			}
			if h.Len() == 0 {
				return false
			}
			victim := heap.Pop(h).(beladyEntry)
			delete(current, victim.id)
			delete(resident, victim.id)
			used -= victim.size
		}
		return true
	}

	for i, r := range tr.Requests {
		res.TotalBytes += r.Size
		if _, ok := resident[r.ID]; ok {
			res.Hit[i] = true
			res.Hits++
			res.HitBytes += r.Size
		} else {
			res.MissCost += r.Cost
		}
		if next[i] < 0 {
			// No future use: evict immediately (never beneficial to keep).
			if _, ok := resident[r.ID]; ok {
				used -= r.Size
				delete(resident, r.ID)
				delete(current, r.ID)
			}
			continue
		}
		if _, ok := resident[r.ID]; ok {
			// Refresh next-use priority (lazy: push new entry).
			current[r.ID] = next[i]
			heap.Push(h, beladyEntry{id: r.ID, nextUse: next[i], size: r.Size})
		} else {
			if r.Size > capacity {
				continue
			}
			resident[r.ID] = i
			current[r.ID] = next[i]
			heap.Push(h, beladyEntry{id: r.ID, nextUse: next[i], size: r.Size})
			used += r.Size
		}
		// Evict furthest-future objects until the cache fits again. The
		// just-inserted object is itself a candidate: evicting it
		// immediately is equivalent to bypassing the cache, which MIN
		// needs to remain optimal when its next use is furthest.
		evictToFit(0)
		if _, stillIn := resident[r.ID]; stillIn {
			res.Admit[i] = true
		}
	}

	// Admit semantics: true only if the object actually survives until
	// its next request. Belady may admit and later evict before reuse;
	// reconcile by replaying hits: Admit[i] holds iff Hit[next[i]].
	for i := range res.Admit {
		if res.Admit[i] {
			res.Admit[i] = next[i] >= 0 && res.Hit[next[i]]
		}
	}
	for i := range tr.Requests {
		if next[i] >= 0 {
			res.Intervals++
		}
	}
	res.Solved = res.Intervals
	return res
}

// beladyEntry is a heap record: an object and the next request index at
// which it will be used.
type beladyEntry struct {
	id      trace.ObjectID
	nextUse int
	size    int64
}

type beladyHeap []beladyEntry

func (h beladyHeap) Len() int            { return len(h) }
func (h beladyHeap) Less(i, j int) bool  { return h[i].nextUse > h[j].nextUse }
func (h beladyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *beladyHeap) Push(x interface{}) { *h = append(*h, x.(beladyEntry)) }
func (h *beladyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
