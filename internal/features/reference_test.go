package features

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"lfo/internal/gen"
	"lfo/internal/trace"
)

// referenceTracker is the tracker as it stood before the slab (the parent
// of PR 24): one heap object per tracked object behind a pointer map, the
// ring allocated with it at first sight. It is the oracle the slab tracker
// is held to, row for row and victim for victim. It shares ageHeap and
// saturate32 with the package, which that PR did not touch.
type referenceTracker struct {
	objects    map[trace.ObjectID]*refState
	maxObjects int
	evictHeap  ageHeap
	victims    []trace.ObjectID
}

type refState struct {
	lastTime int64
	cost     float64
	gaps     [NumGaps - 1]uint32
	n        uint8
}

func newReferenceTracker(maxObjects int) *referenceTracker {
	return &referenceTracker{objects: map[trace.ObjectID]*refState{}, maxObjects: maxObjects}
}

func (t *referenceTracker) Clone() *referenceTracker {
	c := &referenceTracker{
		objects:    make(map[trace.ObjectID]*refState, len(t.objects)),
		maxObjects: t.maxObjects,
		evictHeap:  append(ageHeap(nil), t.evictHeap...),
		victims:    append([]trace.ObjectID(nil), t.victims...),
	}
	for id, st := range t.objects {
		dup := *st
		c.objects[id] = &dup
	}
	return c
}

func (t *referenceTracker) Len() int { return len(t.objects) }

func (t *referenceTracker) Features(r trace.Request, freeBytes int64, dst []float64) {
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

func (t *referenceTracker) FeaturesByID(id trace.ObjectID, size, now, freeBytes int64, dst []float64) {
	r := trace.Request{Time: now, ID: id, Size: size}
	if st := t.objects[id]; st != nil {
		r.Cost = st.cost
	}
	t.Features(r, freeBytes, dst)
}

func (t *referenceTracker) Update(r trace.Request) {
	st := t.objects[r.ID]
	if st == nil {
		if t.maxObjects > 0 && len(t.objects) >= t.maxObjects {
			t.evictOldest()
		}
		t.objects[r.ID] = &refState{lastTime: r.Time, cost: r.Cost}
		if t.maxObjects > 0 {
			t.evictHeap.push(ageEntry{id: r.ID, lastTime: r.Time})
		}
		return
	}
	gap := r.Time - st.lastTime
	copy(st.gaps[1:], st.gaps[:len(st.gaps)-1])
	st.gaps[0] = saturate32(gap)
	if st.n < NumGaps-1 {
		st.n++
	}
	st.lastTime = r.Time
	st.cost = r.Cost
}

func (t *referenceTracker) evictOldest() {
	for len(t.evictHeap) > 0 {
		e := t.evictHeap.pop()
		if st := t.objects[e.id]; st.lastTime != e.lastTime {
			t.evictHeap.push(ageEntry{id: e.id, lastTime: st.lastTime})
			continue
		}
		delete(t.objects, e.id)
		t.victims = append(t.victims, e.id)
		return
	}
}

// lockstep drives a slab tracker and the reference with the same calls and
// fails at the first difference. Each request is probed through Features
// and FeaturesByID on both, then recorded: through Observe on the slab
// tracker when fused is set, through Update otherwise. Victims are read
// off the slab tracker's index: the one ID an insert at the bound removed.
type lockstep struct {
	t       testing.TB
	got     *Tracker
	want    *referenceTracker
	victims []trace.ObjectID
	ops     int
}

func newLockstep(t testing.TB, maxObjects int) *lockstep {
	return &lockstep{t: t, got: NewTracker(maxObjects), want: newReferenceTracker(maxObjects)}
}

func (l *lockstep) clone() *lockstep {
	return &lockstep{t: l.t, got: l.got.Clone(), want: l.want.Clone(),
		victims: append([]trace.ObjectID(nil), l.victims...), ops: l.ops}
}

func sameRow(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func (l *lockstep) request(r trace.Request, free int64, fused bool) {
	l.t.Helper()
	l.ops++
	var got, want [Dim]float64
	l.want.Features(r, free, want[:])
	l.got.Features(r, free, got[:])
	if i := sameRow(got[:], want[:]); i >= 0 {
		l.t.Fatalf("op %d (%+v): Features column %d = %v, reference %v", l.ops, r, i, got[i], want[i])
	}
	l.want.FeaturesByID(r.ID, r.Size, r.Time+3, free, want[:])
	l.got.FeaturesByID(r.ID, r.Size, r.Time+3, free, got[:])
	if i := sameRow(got[:], want[:]); i >= 0 {
		l.t.Fatalf("op %d (%+v): FeaturesByID column %d = %v, reference %v", l.ops, r, i, got[i], want[i])
	}

	var before map[trace.ObjectID]int32
	_, tracked := l.got.index[r.ID]
	if atBound := l.got.maxObjects > 0 && l.got.Len() >= l.got.maxObjects; atBound && !tracked {
		before = make(map[trace.ObjectID]int32, len(l.got.index))
		for id, i := range l.got.index {
			before[id] = i
		}
	}
	l.want.Features(r, free, want[:])
	l.want.Update(r)
	if fused {
		for i := range got {
			got[i] = -1
		}
		l.got.Observe(r, free, got[:])
		if i := sameRow(got[:], want[:]); i >= 0 {
			l.t.Fatalf("op %d (%+v): Observe column %d = %v, reference %v", l.ops, r, i, got[i], want[i])
		}
	} else {
		l.got.Update(r)
	}
	for id := range before {
		if _, ok := l.got.index[id]; !ok {
			l.victims = append(l.victims, id)
		}
	}
	if l.got.Len() != l.want.Len() {
		l.t.Fatalf("op %d (%+v): Len %d, reference %d", l.ops, r, l.got.Len(), l.want.Len())
	}
	if len(l.victims) != len(l.want.victims) ||
		(len(l.victims) > 0 && l.victims[len(l.victims)-1] != l.want.victims[len(l.victims)-1]) {
		l.t.Fatalf("op %d (%+v): eviction victims %v, reference %v", l.ops, r, tail(l.victims), tail(l.want.victims))
	}
	l.checkStorage()
}

func tail(v []trace.ObjectID) []trace.ObjectID {
	if len(v) > 5 {
		return v[len(v)-5:]
	}
	return v
}

// checkStorage holds the slabs to their accounting: a slot per tracked
// object and no more, every ring of either size either held or on its own
// free list, and in a bounded tracker one heap entry per tracked object.
func (l *lockstep) checkStorage() {
	l.t.Helper()
	g := l.got
	if int(g.slots.n) != g.Len() {
		l.t.Fatalf("op %d: %d slots handed out for %d objects", l.ops, g.slots.n, g.Len())
	}
	free := 0
	for i := g.short.free; i != none; i = int32(g.short.at(i)[0]) {
		free++
	}
	if int(g.short.n) != g.short.held+free {
		l.t.Fatalf("op %d: %d short rings handed out for %d held and %d free", l.ops, g.short.n, g.short.held, free)
	}
	free = 0
	for i := g.long.free; i != none; i = int32(g.long.at(i)[0]) {
		free++
	}
	if int(g.long.n) != g.long.held+free {
		l.t.Fatalf("op %d: %d long rings handed out for %d held and %d free", l.ops, g.long.n, g.long.held, free)
	}
	if g.maxObjects > 0 && len(g.evictHeap) != g.Len() {
		l.t.Fatalf("op %d: %d heap entries for %d objects", l.ops, len(g.evictHeap), g.Len())
	}
}

// checkOwnership walks every tracked object: slots and rings are owned
// once, an object of 1 to shortGaps gaps holds a short ring and one of more
// a long ring, each slab's held count is the number of objects holding one
// of its rings, and the ring count is the number of objects seen more than
// once.
func (l *lockstep) checkOwnership() {
	l.t.Helper()
	g := l.got
	slots, short, long := map[int32]bool{}, map[int32]bool{}, map[int32]bool{}
	for id, i := range g.index {
		if slots[i] {
			l.t.Fatalf("slot %d is owned twice (object %d)", i, id)
		}
		slots[i] = true
		s := g.slots.at(i)
		if (s.ring == none) != (s.n == 0) || int(s.n) != int(l.want.objects[id].n) {
			l.t.Fatalf("object %d: ring %d with %d gaps, reference %d gaps", id, s.ring, s.n, l.want.objects[id].n)
		}
		owned, slab := short, g.short.n
		if s.n > shortGaps {
			owned, slab = long, g.long.n
		}
		if s.ring != none {
			if s.ring >= slab {
				l.t.Fatalf("object %d with %d gaps holds ring %d of a slab of %d", id, s.n, s.ring, slab)
			}
			if owned[s.ring] {
				l.t.Fatalf("ring %d is owned twice (object %d, %d gaps)", s.ring, id, s.n)
			}
			owned[s.ring] = true
		}
	}
	if len(short) != g.short.held || len(long) != g.long.held {
		l.t.Fatalf("%d short and %d long rings held, %d and %d objects hold one", g.short.held, g.long.held, len(short), len(long))
	}
	if len(short)+len(long) != g.Rings() {
		l.t.Fatalf("Rings() = %d, %d objects hold one", g.Rings(), len(short)+len(long))
	}
}

func mixTrace(t testing.TB, mix func(int, int64) gen.Config, n int, seed int64) []trace.Request {
	t.Helper()
	tr, err := gen.Generate(mix(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return tr.WithCosts(trace.ObjectiveBHR).Requests
}

// TestTrackerMatchesReference replays generated and hand-built streams
// through the slab tracker and the reference in lock step, bounded and
// unbounded, through Features+Update and through Observe.
func TestTrackerMatchesReference(t *testing.T) {
	cdn := mixTrace(t, gen.CDNMix, 30000, 5)
	web := mixTrace(t, gen.WebMix, 30000, 6)

	var hand []trace.Request
	add := func(tm int64, id trace.ObjectID, cost float64) {
		hand = append(hand, trace.Request{Time: tm, ID: id, Size: int64(id) * 10, Cost: cost})
	}
	for i := 0; i < 4; i++ {
		add(100, 1, 1) // tied timestamps: gap 0
		add(100, 2, 2)
	}
	add(40, 1, 1) // backwards: negative gap1, stored gap saturates to 0
	add(90, 2, 0) // cost 0: the row falls back to the request's cost
	add(95, 2, 7)
	add(95+1<<32+5, 2, 7) // a gap past 2^32 saturates in the ring, not in gap1
	add(96+1<<33, 2, 7)
	for i := int64(0); i < 3*NumGaps; i++ { // far more than a ring holds
		add(1<<34+i*i, 3, float64(i%3))
	}
	add(1<<35, 4, 0) // never-costed object, seen once then again
	add(1<<35+1, 4, 0)

	// Few IDs against a tiny bound: thousands of evictions, and every
	// evicted ID comes back to a recycled slot and, later, a recycled ring.
	var churn []trace.Request
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40000; i++ {
		id := trace.ObjectID(1 + rng.Intn(60))
		if rng.Intn(4) == 0 {
			id = trace.ObjectID(1 + rng.Intn(12)) // a hot set that builds long rings
		}
		churn = append(churn, trace.Request{Time: int64(i / 3), ID: id, Size: 1 + int64(id), Cost: float64(rng.Intn(3))})
	}

	cases := []struct {
		name         string
		reqs         []trace.Request
		bound        int
		minEvictions int
	}{
		{"cdn/unbounded", cdn, 0, 0},
		{"web/unbounded", web, 0, 0},
		{"cdn/bound-500", cdn, 500, 1000},
		{"web/bound-200", web, 200, 1000},
		{"hand/unbounded", hand, 0, 0},
		{"hand/bound-2", hand, 2, 2},
		{"churn/bound-16", churn, 16, 5000},
		{"churn/bound-1", churn, 1, 20000},
	}
	for _, c := range cases {
		for _, fused := range []bool{false, true} {
			l := newLockstep(t, c.bound)
			var fork *lockstep
			for i, r := range c.reqs {
				free := int64(i%7) << 20
				l.request(r, free, fused)
				if i == len(c.reqs)/2 {
					// Clone mid-stream: from here the copy sees the
					// stream backwards in ID space, so the two diverge.
					fork = l.clone()
				}
				if fork != nil {
					r.ID = 1<<20 - r.ID
					fork.request(r, free, !fused)
				}
			}
			l.checkOwnership()
			fork.checkOwnership()
			if len(l.victims) < c.minEvictions {
				t.Errorf("%s: %d evictions, want at least %d for the case to mean anything", c.name, len(l.victims), c.minEvictions)
			}
		}
	}
}

// FuzzTrackerMatchesReference decodes an operation stream from bytes —
// 3 bytes a request: object, time step (0 ties, the top value steps back,
// one value jumps past 2^32), cost and path — and holds the slab tracker
// to the reference under a bound taken from the first byte. The seeds are
// the committed corpus under testdata/fuzz.
func FuzzTrackerMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		l := newLockstep(t, int(data[0]%9))
		var fork *lockstep
		now := int64(1 << 20)
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			switch step := ops[1]; step {
			case 255:
				now -= 1000
			case 254:
				now += 1<<32 + 17
			default:
				now += int64(step)
			}
			r := trace.Request{Time: now, ID: trace.ObjectID(ops[0] % 24), Size: 1 + int64(ops[0]), Cost: float64(ops[2] % 4)}
			l.request(r, int64(ops[2])<<10, ops[2]&4 != 0)
			if fork != nil {
				r.ID += trace.ObjectID(ops[2] % 3)
				fork.request(r, 0, ops[2]&8 != 0)
			} else if ops[2]&0xf0 == 0xf0 {
				fork = l.clone()
			}
		}
		l.checkOwnership()
		if fork != nil {
			fork.checkOwnership()
		}
	})
}

// TestBoundedTrackerSlabPlateaus: under a bound, a million updates grow
// nothing once the bound is reached — slots, rings, heap entries and
// Bytes all stay where the first pass over the bound left them.
func TestBoundedTrackerSlabPlateaus(t *testing.T) {
	const bound, fill = 1000, 6
	tr := NewTracker(bound)
	// Fill to the bound with every object requested six times: all the
	// slots and all the rings of both sizes a tracker of this bound can
	// ever need at once (each object took a short ring, then a long one).
	for i := 0; i < fill*bound; i++ {
		tr.Update(req(int64(i), trace.ObjectID(i%bound), 10, 1))
	}
	slots, short, long, heapCap, bytes := tr.slots.n, tr.short.n, tr.long.n, cap(tr.evictHeap), tr.Bytes()
	if tr.Len() != bound || slots != bound || short != bound || long != bound || tr.short.held != 0 {
		t.Fatalf("at the bound: %d objects in %d slots with %d short rings (%d held) and %d long, want %d of each and no short one held",
			tr.Len(), slots, short, tr.short.held, long, bound)
	}
	rng := rand.New(rand.NewSource(4))
	for i := fill * bound; i < 1000000; i++ {
		id := trace.ObjectID(rng.Intn(20 * bound))
		if i%3 == 0 {
			id = trace.ObjectID(rng.Intn(bound / 2)) // re-requests: rings in use
		}
		tr.Update(req(int64(i), id, 10, 1))
	}
	if tr.slots.n != slots || tr.short.n != short || tr.long.n != long || cap(tr.evictHeap) != heapCap || tr.Bytes() != bytes {
		t.Errorf("after 1000000 updates: slots %d, short rings %d, long %d, heap cap %d, %d bytes; at the bound: %d, %d, %d, %d, %d",
			tr.slots.n, tr.short.n, tr.long.n, cap(tr.evictHeap), tr.Bytes(), slots, short, long, heapCap, bytes)
	}
	if s, l := tr.short.held, tr.long.held; s == 0 || l == 0 || s+l == bound {
		t.Errorf("%d short and %d long rings held by %d objects at the end: the stream does not free and reuse rings of both sizes", s, l, bound)
	}
	if len(tr.evictHeap) != bound {
		t.Errorf("heap holds %d entries, want %d", len(tr.evictHeap), bound)
	}
}

// TestSmallStaysSmall holds the tracker to what an object has earned.
func TestSmallStaysSmall(t *testing.T) {
	if s, sr, r, a := unsafe.Sizeof(slot{}), unsafe.Sizeof(shortRing{}), unsafe.Sizeof(gapRing{}), unsafe.Sizeof(ageEntry{}); s != 24 || sr != 16 || r != 4*(NumGaps-1) || a != 16 {
		t.Fatalf("sizes slot %d, short ring %d, ring %d, heap entry %d; Bytes accounts 24, 16, %d, 16", s, sr, r, a, 4*(NumGaps-1))
	}
	for _, bound := range []int{0, 64} {
		tr := NewTracker(bound)
		for i := 0; i < 64*NumGaps*2; i++ { // every object with a full ring
			tr.Update(req(int64(i), trace.ObjectID(i%64), 10, 1))
		}
		if b := tr.Bytes(); tr.Len() != 64 || b > 16<<10 {
			t.Errorf("bound %d: %d objects with full histories take %d bytes, want 64 in at most 16 KiB", bound, tr.Len(), b)
		}
	}
	few := NewTracker(1 << 22) // server's default bound, a handful of objects
	for i := 0; i < 30; i++ {
		few.Update(req(int64(i), trace.ObjectID(i%3), 10, 1))
	}
	if b := few.Bytes(); b > 4<<10 {
		t.Errorf("3 objects take %d bytes, want at most 4 KiB", b)
	}
	// Three requests, two gaps: no object outgrows its short ring.
	const thrice = 10000
	short := NewTracker(0)
	for i := 0; i < 3*thrice; i++ {
		short.Update(req(int64(i), trace.ObjectID(i%thrice), 10, 1))
	}
	if b, slack := short.Bytes(), int64(chunkLen*(24+16)); short.Rings() != thrice || b > 40*thrice+slack {
		t.Errorf("%d three-request objects: %d rings, %d bytes, want %d rings in at most 40 B each and %d of chunk slack",
			thrice, short.Rings(), b, thrice, slack)
	}
	once := NewTracker(0)
	for i := 0; i < 100000; i++ {
		once.Update(req(int64(i), trace.ObjectID(i), 10, 1))
	}
	if b := once.Bytes(); once.Rings() != 0 || b > 32*100000 {
		t.Errorf("100000 one-request objects: %d rings, %d bytes, want no ring and at most 32 B each", once.Rings(), b)
	}
	once.Update(req(100000, 5, 10, 1))
	if once.Rings() != 1 {
		t.Errorf("Rings() = %d after one second request, want 1", once.Rings())
	}
}

// TestSlabChunks walks the chunk boundaries: consecutive indices fill the
// chunks in order.
func TestSlabChunks(t *testing.T) {
	var s slab[int32]
	for i := int32(0); i < 5*chunkLen+3; i++ {
		if got := s.grow(); got != i {
			t.Fatalf("grow returned %d, want %d", got, i)
		}
		*s.at(i) = i
	}
	if len(s.chunks) != 6 {
		t.Fatalf("%d chunks for %d entries, want 6", len(s.chunks), s.n)
	}
	for c, chunk := range s.chunks {
		for off, v := range chunk {
			if want := int32(c*chunkLen + off); v != want && want < s.n {
				t.Fatalf("chunk %d offset %d holds %d, want %d", c, off, v, want)
			}
		}
	}
}

// TestReadersShareTracker: Features and FeaturesByID write nothing, so a
// rescore may fill its rows from several goroutines (core.LFO.rescore under
// par.Ranges). Run under -race (scripts/check.sh does): a lookup memo or
// any other write on the read path is a reported race.
func TestReadersShareTracker(t *testing.T) {
	tr := NewTracker(300)
	reqs := mixTrace(t, gen.WebMix, 20000, 8)
	for _, r := range reqs {
		tr.Update(r)
	}
	probe := reqs[len(reqs)-2000:]
	now := probe[len(probe)-1].Time + 1
	want := make([]float64, len(probe)*Dim)
	for i, r := range probe {
		tr.FeaturesByID(r.ID, r.Size, now, 1<<20, want[i*Dim:(i+1)*Dim])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var row [Dim]float64
			for i, r := range probe {
				if (i+g)%2 == 0 {
					tr.FeaturesByID(r.ID, r.Size, now, 1<<20, row[:])
				} else {
					r.Time, r.Cost = now, 0 // the same probe as a request
					tr.Features(r, 1<<20, row[:])
				}
				if c := sameRow(row[:], want[i*Dim:(i+1)*Dim]); c >= 0 {
					t.Errorf("goroutine %d, probe %d: column %d = %v, serial %v", g, i, c, row[c], want[i*Dim+c])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
