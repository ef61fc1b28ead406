package evict

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"lfo/internal/gbdt"
	"lfo/internal/gen"
	"lfo/internal/opt"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// referenceLearned is the learned evictor with the victim pick as it stood
// before residents kept their ranker score (PR 20): every candidate's row
// built afresh at every pick, all of them through one PredictMatrix call.
// It is the oracle Learned.pickVictim must equal victim for victim and score
// for score; it shares the sampler, the candidate buffer and featuresInto
// with it, and nothing of the score cache.
type referenceLearned struct {
	*Learned
	rows   [DefaultCandidates * Dim]float64
	scores [DefaultCandidates]float64
}

func (l *referenceLearned) referencePickVictim(now int64) (trace.ObjectID, int) {
	n := DefaultCandidates
	resident := l.store.Len()
	if resident <= n {
		n = resident
		for i := 0; i < n; i++ {
			e := l.store.At(i)
			l.cands[i] = e
			featuresInto(l.rows[i*Dim:(i+1)*Dim], e.Size, &e.Payload, now)
		}
	} else {
		for i := 0; i < n; i++ {
			e := l.store.At(l.intn(resident))
			l.cands[i] = e
			featuresInto(l.rows[i*Dim:(i+1)*Dim], e.Size, &e.Payload, now)
		}
	}
	best := 0
	if l.model == nil {
		for i := 1; i < n; i++ {
			if l.cands[i].Payload.LastAccess < l.cands[best].Payload.LastAccess {
				best = i
			}
		}
		return l.cands[best].ID, n
	}
	l.model.PredictMatrix(l.rows[:n*Dim], l.scores[:n], 1)
	for i := 1; i < n; i++ {
		if l.scores[i] < l.scores[best] {
			best = i
		}
	}
	return l.cands[best].ID, n
}

// lockstepStats is what one lock-step replay saw.
type lockstepStats struct {
	hits, admissions     int
	picks, exhaustive    int // all picks; those over a resident set of at most K
	ranked, scored       int // candidates of model-ranked picks; those that went through the ranker
	admittedAtZero, back bool
}

// lockstep replays reqs through two admit-all learned-eviction caches of
// capacity bytes, one picking victims with Learned.pickVictim and one with
// referencePickVictim, and fails on the first pick whose candidates, scores
// or victim differ. swaps deploys a model on both sides before the request
// of that index. Every seventh victim is requested again right after the
// request that evicted it: it comes back into a recycled entry.
func lockstep(t *testing.T, reqs []trace.Request, capacity int64, swaps map[int]*gbdt.Model) lockstepStats {
	t.Helper()
	const seed = 5
	cs, rs := sim.NewStore[Meta](capacity), sim.NewStore[Meta](capacity)
	cached := newLearned(cs, Options{Seed: seed})
	ref := &referenceLearned{Learned: newLearned(rs, Options{Seed: seed})}
	var st lockstepStats
	last := int64(math.MinInt64)
	var serve func(i int, r trace.Request)
	serve = func(i int, r trace.Request) {
		st.back = st.back || r.Time < last
		last = r.Time
		ec, er := cs.Get(r.ID), rs.Get(r.ID)
		if (ec != nil) != (er != nil) {
			t.Fatalf("request %d: resident with the score cache: %v, without: %v", i, ec != nil, er != nil)
		}
		if ec != nil {
			st.hits++
			cached.OnHit(ec, r)
			ref.OnHit(er, r)
			return
		}
		if r.Size > capacity {
			return
		}
		var again []trace.Request
		for !cs.Fits(r.Size) {
			got, n, scored := cached.pickVictim(r.Time)
			want, nRef := ref.referencePickVictim(r.Time)
			if n != nRef {
				t.Fatalf("request %d: %d candidates, reference %d", i, n, nRef)
			}
			st.picks++
			if cs.Len() <= DefaultCandidates {
				st.exhaustive++
			}
			for k := 0; k < n; k++ {
				c := cached.cands[k]
				if c.ID != ref.cands[k].ID {
					t.Fatalf("request %d candidate %d: object %d, reference %d", i, k, c.ID, ref.cands[k].ID)
				}
				if cached.model != nil && math.Float64bits(c.Payload.rank) != math.Float64bits(ref.scores[k]) {
					t.Fatalf("request %d (time %d) candidate %d, object %d %+v: score %v, reference %v",
						i, r.Time, k, c.ID, c.Payload, c.Payload.rank, ref.scores[k])
				}
			}
			if got != want {
				t.Fatalf("request %d: victim %d, reference %d", i, got, want)
			}
			if cached.model != nil {
				st.ranked += n
				st.scored += scored
			} else if scored != 0 {
				t.Fatalf("request %d: a bootstrap pick scored %d rows", i, scored)
			}
			if st.picks%7 == 0 {
				again = append(again, trace.Request{Time: r.Time, ID: got, Size: cs.Get(got).Size, Cost: r.Cost})
			}
			cs.Remove(got)
			rs.Remove(want)
		}
		st.admissions++
		st.admittedAtZero = st.admittedAtZero || r.Time == 0
		cached.OnAdmit(cs.Add(r.ID, r.Size), r)
		ref.OnAdmit(rs.Add(r.ID, r.Size), r)
		for _, r := range again {
			serve(i, r)
		}
	}
	for i, r := range reqs {
		if m, ok := swaps[i]; ok {
			cached.SetModel(m)
			ref.SetModel(m)
		}
		serve(i, r)
	}
	return st
}

// windowRankers trains one eviction ranker per window of reqs on OPT's
// labels for a cache of capacity bytes, the way Cache.retrain does, and
// returns them keyed by the index of the request after their window. The
// second ranker grows trees of up to 64 leaves, a full bitvector word.
func windowRankers(t *testing.T, reqs []trace.Request, window int, capacity int64) map[int]*gbdt.Model {
	t.Helper()
	swaps := make(map[int]*gbdt.Model)
	for lo := 0; lo+window < len(reqs); lo += window {
		win := reqs[lo : lo+window]
		res, err := opt.Compute(&trace.Trace{Requests: win}, opt.Config{CacheSize: capacity, Algorithm: opt.AlgoGreedy, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		p := gbdt.DefaultParams()
		p.Workers = 1
		if len(swaps) == 1 {
			p.NumLeaves = 64
		}
		m, err := Train(win, res.Admit, p)
		if err != nil {
			t.Fatal(err)
		}
		if full := fullWordTree(m); full != (len(swaps) == 1) {
			t.Fatalf("ranker %d has %d leaves in %d trees: some tree of 64 leaves: %v", len(swaps), m.NumLeaves(), m.NumTrees(), full)
		}
		swaps[lo+window] = m
	}
	return swaps
}

// fullWordTree reports whether some tree of m has 64 leaves, every bit of
// its bitvector word.
func fullWordTree(m *gbdt.Model) bool {
	for _, tree := range m.Trees {
		leaves := 0
		for _, n := range tree.Nodes {
			if n.Feature < 0 {
				leaves++
			}
		}
		if leaves == 64 {
			return true
		}
	}
	return false
}

func genRequests(t *testing.T, cfg gen.Config) []trace.Request {
	t.Helper()
	tr, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Requests
}

// TestPickVictimMatchesReference drives a score-caching and a reference
// learned evictor in lock-step, same sampler seed, through replays that
// between them hold everything that ends a cached score's life or could
// corrupt one: hits, evictions, re-admission of a just-evicted object into
// a recycled entry, three model swaps (one to a ranker of 64-leaf
// trees), resident sets small enough for the exhaustive branch, runs of
// equal timestamps, times that start negative and cross zero, one step
// backwards in time, and a hand-built ranker whose ±1e300 thresholds
// saturate the validity horizon. Victims, candidate sets and every
// candidate's score must agree at every pick.
func TestPickVictimMatchesReference(t *testing.T) {
	const window = 4000

	t.Run("web mix, one step back in time", func(t *testing.T) {
		reqs := genRequests(t, gen.WebMix(4*window, 3))
		swaps := windowRankers(t, reqs, window, 16<<20)
		// After the second swap the clock falls back by 600 requests' worth
		// and runs on from there.
		for i := 2*window + 700; i < len(reqs); i++ {
			reqs[i].Time -= 600
		}
		st := lockstep(t, reqs, 16<<20, swaps)
		if !st.back || len(swaps) != 3 {
			t.Fatalf("replay stepped back: %v, model swaps: %d, want true and 3", st.back, len(swaps))
		}
		if st.hits == 0 || st.ranked == 0 || st.exhaustive != 0 {
			t.Fatalf("degenerate replay: %+v", st)
		}
		if st.scored == 0 || 2*st.scored > st.ranked {
			t.Errorf("ranker scored %d of %d candidates: the score cache should answer more than half", st.scored, st.ranked)
		}
	})

	t.Run("cdn mix, coarse clock from negative times", func(t *testing.T) {
		reqs := genRequests(t, gen.CDNMix(4*window, 4))
		// Sixteen requests share a timestamp; the clock starts below zero
		// and request window+500 and its fifteen neighbours arrive at 0.
		zero := reqs[window+500].Time / 16
		for i := range reqs {
			reqs[i].Time = reqs[i].Time/16 - zero
		}
		st := lockstep(t, reqs, 64<<20, windowRankers(t, reqs, window, 64<<20))
		if reqs[0].Time >= 0 || !st.admittedAtZero {
			t.Fatalf("first request at %d, an object admitted at time 0: %v; want a negative start and true", reqs[0].Time, st.admittedAtZero)
		}
		if st.hits == 0 || st.ranked == 0 || st.scored == 0 || st.scored == st.ranked {
			t.Fatalf("degenerate replay: %+v", st)
		}
	})

	t.Run("at most K residents", func(t *testing.T) {
		reqs := genRequests(t, gen.WebMix(4*window, 6))
		st := lockstep(t, reqs, 256<<10, windowRankers(t, reqs, window, 256<<10))
		if st.exhaustive == 0 || st.ranked == 0 || st.scored == 0 || st.scored == st.ranked {
			t.Fatalf("degenerate replay: %+v", st)
		}
	})

	leaf := func(v float64) gbdtNode { return gbdtNode{feature: -1, value: v} }
	stump := func(feature int, thr, left, right float64) []gbdtNode {
		return []gbdtNode{{feature: feature, thr: thr, left: 1, right: 2}, leaf(left), leaf(right)}
	}

	t.Run("thresholds between whole times", func(t *testing.T) {
		// A trained ranker's thresholds are values its window held, whole
		// numbers; these lie between them, on both sides of zero, so the
		// last valid time is a floor and not a ceiling, a truncation or a
		// limit+1. The clock falls back once, far enough that residents
		// admitted just before it have negative ages for a while.
		var trees [][]gbdtNode
		for i, thr := range []float64{-400.75, -100.5, -10.25, 10.5, 99.5, 1000.25, 2500.5} {
			trees = append(trees,
				stump(FeatAge, thr, 0.1*float64(i+1), -0.07*float64(i+1)),
				stump(FeatIdle, thr/2, -0.05*float64(i+2), 0.11*float64(i+1)))
		}
		trees = append(trees, stump(FeatSize, 9000, -0.2, 0.3), stump(FeatFreq, 1.5, -0.4, 0.2))
		reqs := genRequests(t, gen.WebMix(2*window, 7))
		for i := window; i < len(reqs); i++ {
			reqs[i].Time -= 600
		}
		st := lockstep(t, reqs, 16<<20, map[int]*gbdt.Model{0: buildModel(t, trees)})
		if !st.back || st.ranked == 0 || st.scored == 0 || 2*st.scored > st.ranked {
			t.Fatalf("degenerate replay: %+v", st)
		}
	})

	t.Run("thresholds at ±1e300 and 2^62", func(t *testing.T) {
		// Idle time is only ever tested against ±1e300 and age against
		// +1e300, -1e300 and 2^62: every row goes left at the positive
		// ones, so the horizons are 1e300 and 2^62 on times beyond 2^62.
		// Both leave int64: the validity time must saturate, not wrap, and
		// a score then lives until its resident is touched. Size and
		// frequency make the scores, with many ties between them.
		m := buildModel(t, [][]gbdtNode{
			{{feature: FeatAge, thr: 1e300, left: 1, right: 2}, {feature: FeatSize, thr: 20000, left: 3, right: 4}, leaf(0), leaf(-0.3), leaf(0.2)},
			{{feature: FeatIdle, thr: -1e300, left: 1, right: 2}, leaf(0.1), {feature: FeatFreq, thr: 1.5, left: 3, right: 4}, leaf(-0.2), leaf(0.4)},
			{{feature: FeatIdle, thr: 1e300, left: 1, right: 2}, {feature: FeatAge, thr: -1e300, left: 3, right: 4}, leaf(0), leaf(1), leaf(-0.1)},
			stump(FeatAge, 1<<62, 0.05, 5),
		})
		reqs := genRequests(t, gen.WebMix(2*window, 8))
		for i := range reqs {
			reqs[i].Time += 1<<62 + 1
		}
		st := lockstep(t, reqs, 16<<20, map[int]*gbdt.Model{0: m})
		if st.ranked == 0 || st.scored > st.admissions+st.hits {
			t.Errorf("ranker scored %d rows for %d admissions and %d hits: a score should outlive everything but a touch (%+v)",
				st.scored, st.admissions, st.hits, st)
		}
	})
}

// TestLearnedSlabFlatAcrossSwaps: SetModel re-sizes the carried-state slab
// to each ranker's stride, and over many swaps between rankers of
// different strides — one of them, a tree of more than 32 leaves, carrying
// nothing — the slab, the slots handed out and the free list stop growing
// once the rankers have each been deployed, while every pick equals a
// fresh full scan.
func TestLearnedSlabFlatAcrossSwaps(t *testing.T) {
	stumps := func(n int) [][]gbdtNode {
		var trees [][]gbdtNode
		for i := 0; i < n; i++ {
			f := FeatAge
			if i%2 == 1 {
				f = FeatIdle
			}
			trees = append(trees, []gbdtNode{{feature: f, thr: float64(40 + 97*i%700), left: 1, right: 2},
				{feature: -1, value: 0.1 * float64(i%5-2)}, {feature: -1, value: -0.07 * float64(i%3+1)}})
		}
		return append(trees, []gbdtNode{{feature: FeatSize, thr: 5000, left: 1, right: 2}, {feature: -1, value: -0.2}, {feature: -1, value: 0.3}})
	}
	// A chain of 39 splits on age and idle time: 40 leaves in one tree.
	var chain []gbdtNode
	const splits = 39
	for j := 0; j < splits; j++ {
		right := 2*j + 2
		chain = append(chain, gbdtNode{feature: FeatAge + j%2, thr: float64(25 * (j + 1)), left: 2*j + 1, right: right},
			gbdtNode{feature: -1, value: 0.01 * float64(j%7-3)})
	}
	chain = append(chain, gbdtNode{feature: -1, value: 0.5})
	rankers := []*gbdt.Model{buildModel(t, stumps(4)), buildModel(t, stumps(24)), buildModel(t, append(stumps(2), chain))}
	words := make([]int, len(rankers))
	for i, m := range rankers {
		words[i] = m.CarryWords(len(movingFeats))
	}
	if words[0] == 0 || words[1] <= words[0] || words[2] != 0 {
		t.Fatalf("rankers carry %v words, want two different non-zero strides and a 0", words)
	}

	const residents, swaps, picks = 150, 60, 12
	cs, rs := sim.NewStore[Meta](1<<40), sim.NewStore[Meta](1<<40)
	cached := newLearned(cs, Options{Seed: 3})
	ref := &referenceLearned{Learned: newLearned(rs, Options{Seed: 3})}
	now := int64(0)
	for id := trace.ObjectID(1); id <= residents; id++ {
		r := trace.Request{Time: now, ID: id, Size: 100 * int64(id%60+1), Cost: 1}
		cached.OnAdmit(cs.Add(r.ID, r.Size), r)
		ref.OnAdmit(rs.Add(r.ID, r.Size), r)
		now += 3
	}
	var slabCap int
	var slots uint32
	var free int
	for swap := 0; swap < swaps; swap++ {
		m := rankers[swap%len(rankers)]
		cached.SetModel(m)
		ref.SetModel(m)
		for p := 0; p < picks; p++ {
			now += int64(7 + 13*(p%4))
			if p%3 == 0 { // a hit: one resident's score ends early
				id := trace.ObjectID(1 + (swap*picks+p)%residents)
				r := trace.Request{Time: now, ID: id, Size: cs.Get(id).Size, Cost: 1}
				cached.OnHit(cs.Get(id), r)
				ref.OnHit(rs.Get(id), r)
			}
			got, n, _ := cached.pickVictim(now)
			want, _ := ref.referencePickVictim(now)
			for k := 0; k < n; k++ {
				if c := cached.cands[k]; c.ID != ref.cands[k].ID || math.Float64bits(c.Payload.rank) != math.Float64bits(ref.scores[k]) {
					t.Fatalf("swap %d pick %d candidate %d: object %d score %v, full scan object %d score %v",
						swap, p, k, c.ID, c.Payload.rank, ref.cands[k].ID, ref.scores[k])
				}
			}
			if got != want {
				t.Fatalf("swap %d pick %d: victim %d, full scan %d", swap, p, got, want)
			}
		}
		if swap == 2*len(rankers)-1 {
			slabCap, slots, free = cap(cached.slab), cached.slots, len(cached.free)
		}
	}
	if cap(cached.slab) != slabCap || cached.slots != slots || len(cached.free) != free {
		t.Errorf("after %d swaps: slab cap %d, %d slots, %d free; after %d: %d, %d, %d",
			swaps, cap(cached.slab), cached.slots, len(cached.free), 2*len(rankers), slabCap, slots, free)
	}
	if slots == 0 || slots > residents {
		t.Errorf("%d slots handed out for %d residents", slots, residents)
	}
}

// gbdtNode is a tree node as a test writes it down. gbdt keeps its node
// type to itself, so buildModel makes a ranker of them the way a ranker
// arrives from outside: a gob stream of Model.Save's shape through
// gbdt.Load, which validates and compiles it.
type gbdtNode struct {
	feature     int
	thr         float64
	left, right int
	value       float64
}

func buildModel(t *testing.T, trees [][]gbdtNode) *gbdt.Model {
	t.Helper()
	type node struct {
		Feature     int32
		Threshold   float64
		MissingLeft bool
		Left, Right int32
		Value       float64
	}
	type tree struct{ Nodes []node }
	wire := struct {
		Dim       int
		BaseScore float64
		Trees     []tree
	}{Dim: Dim, BaseScore: -0.25}
	for _, ns := range trees {
		var tr tree
		for _, n := range ns {
			tr.Nodes = append(tr.Nodes, node{Feature: int32(n.feature), Threshold: n.thr, Left: int32(n.left), Right: int32(n.right), Value: n.value})
		}
		wire.Trees = append(wire.Trees, tr)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		t.Fatal(err)
	}
	m, err := gbdt.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAddFloor pins the saturating validity arithmetic on its own: a wrapped
// sum on the negative side would read as a score valid for ever.
func TestAddFloor(t *testing.T) {
	for _, tc := range []struct {
		t    int64
		d    float64
		want int64
	}{
		{100, 12.5, 112},
		{100, 12, 112},
		{100, -0.5, 99},
		{-7, 0, -7},
		{0, math.Inf(1), math.MaxInt64},
		{math.MinInt64, 1e300, math.MaxInt64},
		{5, 1 << 63, math.MaxInt64},
		{1 << 62, 1 << 62, math.MaxInt64},
		{1<<62 - 1, 1 << 62, math.MaxInt64},
		{-1, 1 << 62, 1<<62 - 1},
		{math.MaxInt64, 0.75, math.MaxInt64},
		{math.MaxInt64, -1, math.MaxInt64 - 1},
		{math.MinInt64, -0.25, math.MinInt64},
		{-(1 << 62), -(1 << 62), math.MinInt64},
		{-(1 << 62) - 1, -(1 << 62), math.MinInt64},
		{0, -1e300, math.MinInt64},
		{0, math.Inf(-1), math.MinInt64},
	} {
		if got := addFloor(tc.t, tc.d); got != tc.want {
			t.Errorf("addFloor(%d, %v) = %d, want %d", tc.t, tc.d, got, tc.want)
		}
	}
}
