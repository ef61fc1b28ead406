package sim

import (
	"fmt"

	"lfo/internal/trace"
)

// Store is a byte-accurate cache content tracker shared by the policy
// implementations. It maintains the resident set, used bytes, and an
// optional per-object payload of type T for the policy's metadata (LRU
// list elements, heap indices, priorities, ...).
//
// Store enforces the size invariant (Used <= Capacity is the caller's job
// to restore via evictions, but Used is always the exact sum of resident
// object sizes) and rejects double-adds and unknown removals, turning
// policy bookkeeping bugs into immediate panics rather than silent metric
// corruption.
type Store[T any] struct {
	capacity int64
	used     int64
	entries  map[trace.ObjectID]*StoreEntry[T]
	// dense holds every resident entry in arbitrary but deterministic
	// order (insertion order with swap-with-last deletion), giving O(1)
	// allocation-free uniform sampling via At. It is exactly the resident
	// set: len(dense) == Len().
	dense []*StoreEntry[T]
	// freed entries recycled by Add; bounds steady-state allocation to the
	// peak resident count instead of one allocation per admission.
	free []*StoreEntry[T]
}

// StoreEntry is one resident object with the policy's payload.
type StoreEntry[T any] struct {
	ID      trace.ObjectID
	Size    int64
	Payload T
	dense   int // index into Store.dense, maintained by Add/Remove
}

// NewStore returns an empty store with the given capacity in bytes.
func NewStore[T any](capacity int64) *Store[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: store capacity must be positive, got %d", capacity))
	}
	return &Store[T]{capacity: capacity, entries: make(map[trace.ObjectID]*StoreEntry[T], 1024)}
}

// Capacity returns the configured capacity in bytes.
func (s *Store[T]) Capacity() int64 { return s.capacity }

// Used returns the currently resident bytes.
func (s *Store[T]) Used() int64 { return s.used }

// Free returns the available bytes.
func (s *Store[T]) Free() int64 { return s.capacity - s.used }

// Len returns the number of resident objects.
func (s *Store[T]) Len() int { return len(s.entries) }

// Get returns the entry for id, or nil.
func (s *Store[T]) Get(id trace.ObjectID) *StoreEntry[T] {
	return s.entries[id]
}

// Has reports whether id is resident.
func (s *Store[T]) Has(id trace.ObjectID) bool {
	_, ok := s.entries[id]
	return ok
}

// Add inserts an object and returns its entry. It panics if the object is
// already resident or larger than the capacity; callers must evict first
// if Free() < size. The entry may be recycled from an earlier Remove, so
// callers must not retain entry pointers past the object's eviction.
func (s *Store[T]) Add(id trace.ObjectID, size int64) *StoreEntry[T] {
	if _, ok := s.entries[id]; ok {
		panic(fmt.Sprintf("sim: double add of object %d", id))
	}
	if size > s.capacity {
		panic(fmt.Sprintf("sim: object %d size %d exceeds capacity %d", id, size, s.capacity))
	}
	var e *StoreEntry[T]
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
		var zero T
		e.ID, e.Size, e.Payload = id, size, zero
	} else {
		//lfolint:ignore hotpath-alloc freelist miss: one entry per new peak-resident object, recycled forever after
		e = &StoreEntry[T]{ID: id, Size: size}
	}
	e.dense = len(s.dense)
	//lfolint:ignore hotpath-alloc dense index backing array grows to the peak resident count, then recycles
	s.dense = append(s.dense, e)
	s.entries[id] = e
	s.used += size
	return e
}

// Remove evicts an object and returns its entry, whose fields stay intact
// until the next Add recycles it. It panics if the object is not resident.
func (s *Store[T]) Remove(id trace.ObjectID) *StoreEntry[T] {
	e, ok := s.entries[id]
	if !ok {
		panic(fmt.Sprintf("sim: remove of non-resident object %d", id))
	}
	delete(s.entries, id)
	s.used -= e.Size
	// Swap-with-last keeps the dense index compact in O(1).
	last := len(s.dense) - 1
	if e.dense != last {
		moved := s.dense[last]
		s.dense[e.dense] = moved
		moved.dense = e.dense
	}
	s.dense = s.dense[:last]
	//lfolint:ignore hotpath-alloc freelist backing array grows to the peak resident count, then recycles
	s.free = append(s.free, e)
	return e
}

// At returns the i-th resident entry in the store's dense index,
// 0 <= i < Len(). The order is deterministic (insertion order perturbed
// by swap-with-last deletion) but otherwise unspecified; it exists so
// sampled-eviction policies can draw uniform candidates in O(1) without
// allocating. The entry is only valid until the object is removed.
func (s *Store[T]) At(i int) *StoreEntry[T] { return s.dense[i] }

// Fits reports whether an object of the given size could be admitted
// without eviction.
func (s *Store[T]) Fits(size int64) bool { return s.used+size <= s.capacity }
