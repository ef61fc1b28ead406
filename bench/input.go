package main

import (
	"math/rand"

	"lfo/internal/gen"
	"lfo/internal/trace"
)

// referenceSeed generates the object population of every run: sizes,
// popularity ranks and the drift schedule. A fresh population per seed
// draws fresh sizes for the few hot multi-megabyte objects a 64 MiB cache
// holds, which moves bhr by ±25 % and the timings with it — far more than
// any code change would, and not something more requests average out.
const referenceSeed = 7

// shuffleRun is how far the seed may move a request from its reference
// position.
const shuffleRun = 16

// input makes a run's requests from the reference trace and the seed: the
// seed shuffles the requests inside each run of shuffleRun (timestamps stay
// in place, so the trace stays sorted) and relabels every object through a
// seeded bijection. The program under test therefore sees another request
// order, other IDs (other map, ring and tie-break behaviour) and makes
// another decision sequence for every seed, over one population.
func input(mix func(int, int64) gen.Config, requests int, seed int64) (*trace.Trace, error) {
	tr, err := gen.Generate(mix(requests, referenceSeed))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	key := rng.Uint64()
	reqs := tr.Requests
	for lo := 0; lo < len(reqs); lo += shuffleRun {
		run := reqs[lo:]
		if len(run) > shuffleRun {
			run = run[:shuffleRun]
		}
		rng.Shuffle(len(run), func(i, j int) {
			run[i].Time, run[j].Time = run[j].Time, run[i].Time
			run[i], run[j] = run[j], run[i]
		})
	}
	for i := range reqs {
		reqs[i].ID = trace.ObjectID(mix64(uint64(reqs[i].ID) ^ key))
	}
	return tr, nil
}

// mix64 is the SplitMix64 finalizer, a bijection on uint64.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
