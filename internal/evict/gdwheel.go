package evict

import (
	"container/list"
	"math/bits"

	"lfo/internal/gbdt"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// GD-Wheel geometry: wheelLevels hierarchical wheels of wheelSlots slots
// each cover cost values up to wheelSlots^wheelLevels - 1.
const (
	wheelSlots  = 256
	wheelLevels = 4
)

// gdWheel is the Greedy-Dual cost-aware evictor with hierarchical cost
// wheels (Li & Cox, EuroSys 2015). Greedy-Dual assigns each object the
// priority H = L + C (L the global age, C the retrieval cost) and evicts
// the minimum; GD-Wheel makes this O(1) by placing objects on
// timing-wheel-like cost wheels and representing L as the wheel hands.
// A hit restores the object's priority by repositioning it C slots ahead
// of the hand. Per-level occupancy bitmaps let the hands jump directly to
// the next occupied slot, so evictions stay O(1) even when costs span the
// full wheel range (CDN byte costs do).
type gdWheel struct {
	wheels   [wheelLevels][wheelSlots]*list.List
	occupied [wheelLevels]slotmap
	hand     [wheelLevels]int
	count    int // total queued entries, to guard hand advancement
	entries  map[trace.ObjectID]*gdwEntry
}

// gdwEntry locates an object on the wheels.
type gdwEntry struct {
	elem      *list.Element
	level     int
	slot      int
	remainder int64 // cost below this level's resolution, for migration
	id        trace.ObjectID
}

func newGDWheel() *gdWheel {
	w := &gdWheel{entries: make(map[trace.ObjectID]*gdwEntry, 1024)}
	for l := 0; l < wheelLevels; l++ {
		for s := 0; s < wheelSlots; s++ {
			w.wheels[l][s] = list.New()
		}
	}
	return w
}

func (w *gdWheel) Name() string { return "gdwheel" }

func (w *gdWheel) OnAdmit(e *sim.StoreEntry[Meta], r trace.Request) {
	e.Payload.admitted(r)
	ent := &gdwEntry{id: e.ID}
	w.entries[e.ID] = ent
	w.place(ent, costUnits(r.Cost))
}

// OnHit restores the object's priority to H = L + C.
func (w *gdWheel) OnHit(e *sim.StoreEntry[Meta], r trace.Request) {
	e.Payload.touched(r)
	ent := w.entries[e.ID]
	w.unlink(ent)
	w.place(ent, costUnits(r.Cost))
}

func (w *gdWheel) OnRemove(e *sim.StoreEntry[Meta]) {
	w.unlink(w.entries[e.ID])
	delete(w.entries, e.ID)
}

// Victim moves the hands to the next due object and returns it.
func (w *gdWheel) Victim(now int64) trace.ObjectID {
	if w.count == 0 {
		panic("evict: GD-Wheel victim with empty wheels")
	}
	for guard := 0; ; guard++ {
		if guard > wheelLevels*wheelSlots {
			panic("evict: GD-Wheel hand sweep failed to locate entries")
		}
		if s, ok := w.occupied[0].next(w.hand[0]); ok {
			w.hand[0] = s
			return w.wheels[0][s].Front().Value.(*gdwEntry).id
		}
		// Level 0 exhausted for this rotation: wrap and pull the next
		// occupied higher-level slot down.
		w.hand[0] = 0
		w.pull(1)
	}
}

func (w *gdWheel) SetModel(m *gbdt.Model) {}

// Len returns how many objects the wheels hold: exactly the residents.
func (w *gdWheel) Len() int { return w.count }

// levelSpan[l] = wheelSlots^l, the cost covered by one slot of level l.
var levelSpan = func() [wheelLevels + 1]int64 {
	var s [wheelLevels + 1]int64
	s[0] = 1
	for i := 1; i <= wheelLevels; i++ {
		s[i] = s[i-1] * wheelSlots
	}
	return s
}()

// costUnits quantizes a retrieval cost onto the wheel range [1, max].
func costUnits(c float64) int64 {
	u := int64(c)
	if u < 1 {
		u = 1
	}
	if max := levelSpan[wheelLevels] - 1; u > max {
		u = max
	}
	return u
}

// place inserts an entry c cost units ahead of the hands.
func (w *gdWheel) place(e *gdwEntry, c int64) {
	level := 0
	for level+1 < wheelLevels && c >= levelSpan[level+1] {
		level++
	}
	offset := c / levelSpan[level]
	e.level = level
	e.slot = int((int64(w.hand[level]) + offset) % wheelSlots)
	e.remainder = c % levelSpan[level]
	e.elem = w.wheels[level][e.slot].PushBack(e)
	w.occupied[level].set(e.slot)
	w.count++
}

// unlink removes an entry from its wheel slot.
func (w *gdWheel) unlink(e *gdwEntry) {
	l := w.wheels[e.level][e.slot]
	l.Remove(e.elem)
	if l.Len() == 0 {
		w.occupied[e.level].clear(e.slot)
	}
	e.elem = nil
	w.count--
}

// pull advances level l's hand to its next occupied slot — cascading to
// level l+1 when this rotation of level l is exhausted — and migrates that
// slot's entries down to finer wheels. Migration always places entries at
// levels strictly below l (remainders are below this level's resolution),
// so after pull returns, the caller re-scans its own level.
func (w *gdWheel) pull(l int) {
	if l >= wheelLevels {
		// Carry beyond the top wheel is vacuous: lower levels wrap and
		// re-scan entries placed for their next rotation.
		return
	}
	if s, ok := w.occupied[l].next(w.hand[l] + 1); ok {
		w.migrate(l, s)
		return
	}
	// This rotation of level l is exhausted: wrap, carry into level l+1
	// (which migrates entries into levels <= l), then forward anything
	// now due on this level — including entries that had been placed
	// "behind the hand" for this new rotation.
	w.hand[l] = 0
	w.pull(l + 1)
	if s, ok := w.occupied[l].next(0); ok {
		w.migrate(l, s)
	}
}

// migrate moves level l's hand to slot s and re-places the slot's entries
// on finer wheels according to their remainders.
func (w *gdWheel) migrate(l, s int) {
	w.hand[l] = s
	slot := w.wheels[l][s]
	for slot.Len() > 0 {
		e := slot.Front().Value.(*gdwEntry)
		w.unlink(e)
		w.place(e, e.remainder)
	}
}

// slotmap is a 256-bit occupancy bitmap.
type slotmap [wheelSlots / 64]uint64

func (m *slotmap) set(i int)   { m[i/64] |= 1 << (i % 64) }
func (m *slotmap) clear(i int) { m[i/64] &^= 1 << (i % 64) }

// next returns the first occupied slot >= from, if any.
func (m *slotmap) next(from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	w := from / 64
	// Mask off bits below `from` in the first word.
	cur := m[w] &^ ((1 << (from % 64)) - 1)
	for {
		if cur != 0 {
			return w*64 + bits.TrailingZeros64(cur), true
		}
		w++
		if w >= len(m) {
			return 0, false
		}
		cur = m[w]
	}
}
