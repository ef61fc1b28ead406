package evict

import (
	"testing"

	"lfo/internal/gbdt"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// trainedRanker fits a small real model so that a benchmark or test
// exercises the ranker, not the bootstrap fallback.
func trainedRanker(b testing.TB) *gbdt.Model {
	b.Helper()
	reqs := make([]trace.Request, 2000)
	admit := make([]bool, len(reqs))
	for i := range reqs {
		id := trace.ObjectID(i % 97)
		reqs[i] = trace.Request{Time: int64(i), ID: id, Size: int64(id%13+1) << 10, Cost: 1}
		admit[i] = id%3 != 0
	}
	params := gbdt.DefaultParams()
	params.Workers = 1
	m, err := Train(reqs, admit, params)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkPickVictim measures one learned victim pick under churn: time
// moves on by one unit, one of the 4096 residents is hit or replaced by a
// new object, then K=64 candidates are sampled and ranked — cached scores
// copied, lapsed and new ones through the ranker. Without the churn every
// iteration after the first would read the score cache only. This is the
// eviction hot path and is pinned at 0 allocs/op in
// testdata/alloc_budgets.txt.
func BenchmarkPickVictim(b *testing.B) {
	const residents = 4096
	store := sim.NewStore[Meta](64 << 20)
	l := newLearned(store, Options{Seed: 1})
	l.SetModel(trainedRanker(b))
	for i := 0; i < residents; i++ {
		e := store.Add(trace.ObjectID(i), 8<<10)
		l.OnAdmit(e, trace.Request{Time: int64(i), ID: trace.ObjectID(i), Size: 8 << 10, Cost: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := int64(residents + i)
		e := store.At(i * 61 % residents)
		r := trace.Request{Time: now, ID: e.ID, Size: e.Size, Cost: 1}
		if i%2 == 0 {
			l.OnHit(e, r)
		} else {
			l.OnRemove(e)
			store.Remove(e.ID)
			r.ID = trace.ObjectID(residents + i)
			l.OnAdmit(store.Add(r.ID, r.Size), r)
		}
		l.Victim(now)
	}
}

// BenchmarkHeuristicRequest drives each heuristic kind through an admit-all
// Cache at steady-state eviction churn: 256 objects of 1 KiB cycled through
// 64 KiB, so every request is a miss that evicts one resident and admits
// the newcomer (the sampling kinds' victims let the odd object survive a
// cycle), the worst case for per-admission allocation. Recycled store
// entries and the pq freelist make it allocation-free but for GD-Wheel's
// wheel entry and list element per admission; every sub-benchmark is
// pinned in testdata/alloc_budgets.txt. The request times cycle, so a
// time-keeping kind also sees time run backwards.
func BenchmarkHeuristicRequest(b *testing.B) {
	const (
		capacity = 1 << 16 // 64 resident objects of 1 KiB
		objSize  = 1 << 10
		universe = 256 // 4x capacity: sequential cycling never hits
	)
	reqs := make([]trace.Request, universe)
	for i := range reqs {
		reqs[i] = trace.Request{Time: int64(i), ID: trace.ObjectID(i), Size: objSize, Cost: 1}
	}
	for _, kind := range Kinds() {
		if kind == "rank" || kind == "learned" {
			continue
		}
		b.Run(kind, func(b *testing.B) {
			c, err := New(Config{CacheSize: capacity, Eviction: kind, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			// Warm through the whole universe twice so the store and pq
			// freelists and map buckets reach their steady-state footprint.
			for round := 0; round < 2; round++ {
				for _, r := range reqs {
					c.Request(r)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Request(reqs[i%universe])
			}
		})
	}
}
