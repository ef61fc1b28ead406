// Package par provides the deterministic fan-out helpers behind the
// repository's Workers knobs. Every helper runs a caller-supplied closure
// over disjoint index ranges; callers guarantee the closure only writes
// state owned by its range (or per-shard accumulator slots), so the result
// is byte-identical for any worker count — parallelism changes wall-clock
// time, never output. Shard decomposition depends only on the problem
// size, never on the worker count, so per-shard reductions performed in
// shard order are reproducible too.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a Workers knob value to a concrete goroutine count:
// 0 means all available cores (runtime.GOMAXPROCS), values below 1 clamp
// to 1 (fully sequential).
func Resolve(workers int) int {
	if workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// Ranges splits [0, n) into at most workers contiguous chunks of at least
// minChunk indices and runs fn on each chunk concurrently, returning when
// all chunks are done. fn must only write state owned by its [lo, hi)
// range. When a single chunk results (workers <= 1, n <= minChunk), fn
// runs inline with no goroutine.
func Ranges(n, workers, minChunk int, fn func(lo, hi int)) {
	RangesArg(n, workers, minChunk, fn, func(fn func(lo, hi int), lo, hi int) { fn(lo, hi) })
}

// RangesArg is the implementation of Ranges, with the range body split
// into a package-level function and an explicit argument that is handed
// back to fn on every chunk. A hot caller that would otherwise build a
// fresh capturing closure per call (one heap allocation each time)
// instead passes a static func value plus a by-value argument struct:
// when a single chunk results (workers <= 1, n <= minChunk) the call runs
// inline and allocates nothing at all. The multi-chunk path spawns one
// goroutine per chunk of at least minChunk indices.
func RangesArg[T any](n, workers, minChunk int, arg T, fn func(arg T, lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	workers = Resolve(workers)
	chunks := (n + minChunk - 1) / minChunk
	if chunks > workers {
		chunks = workers
	}
	if chunks <= 1 {
		//lfolint:ignore hotpath-alloc fn is the caller's range body; hot-path callers verify it at their own annotation root
		fn(arg, 0, n)
		return
	}
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		//lfolint:ignore hotpath-alloc one goroutine+closure per chunk of >=minChunk indices, amortized across the range
		go func(lo, hi int) {
			defer wg.Done()
			//lfolint:ignore hotpath-alloc fn is the caller's range body; hot-path callers verify it at their own annotation root
			fn(arg, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Shards runs fn once per fixed-size shard of [0, n): shard s covers
// [s*shardSize, min((s+1)*shardSize, n)). The decomposition depends only
// on n and shardSize — never on workers — so a caller that accumulates
// into a per-shard slot and reduces the slots in shard order computes the
// same floating-point result for every worker count. With workers <= 1
// (or a single shard) the shards run inline in order.
func Shards(n, shardSize, workers int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	if shardSize < 1 {
		shardSize = 1
	}
	shards := (n + shardSize - 1) / shardSize
	workers = Resolve(workers)
	if workers > shards {
		workers = shards
	}
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			lo := s * shardSize
			hi := lo + shardSize
			if hi > n {
				hi = n
			}
			fn(s, lo, hi)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				lo := s * shardSize
				hi := lo + shardSize
				if hi > n {
					hi = n
				}
				fn(s, lo, hi)
			}
		}()
	}
	wg.Wait()
}

// NumShards returns the shard count Shards would use for n and shardSize,
// for callers sizing per-shard accumulator slices.
func NumShards(n, shardSize int) int {
	if n <= 0 {
		return 0
	}
	if shardSize < 1 {
		shardSize = 1
	}
	return (n + shardSize - 1) / shardSize
}
