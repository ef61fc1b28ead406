// Package mrc computes miss-ratio curves (hit ratio as a function of
// cache size) for request traces — the cache-provisioning view of a
// workload that §5 of the paper points to (Sundarrajan et al.'s footprint
// descriptors [72]).
//
// For LRU the curve is exact and computed in one O(n log n) pass with
// Mattson's stack algorithm generalized to variable object sizes: a
// request to object o hits in an LRU cache of capacity C if and only if
// the unique bytes touched since o's previous request, plus o's own size,
// do not exceed C. (LRU with byte capacities retains the stack inclusion
// property, so the condition is exact; see the package tests, which
// verify bit-for-bit agreement with the simulator.)
//
// For OPT the curve is sampled by running the opt package's solver at
// each candidate size.
package mrc

import (
	"fmt"
	"math"
	"sort"

	"lfo/internal/opt"
	"lfo/internal/par"
	"lfo/internal/trace"
)

// Curve is a hit-ratio-vs-cache-size function for one policy on one
// trace. Query it with BHR/OHR at arbitrary cache sizes.
type Curve struct {
	// reuse distances (bytes) per request, -1 for cold misses; sorted
	// copies with cumulative weights answer queries.
	distSorted []int64
	objCum     []float64 // cumulative request count at distSorted[i]
	byteCum    []float64 // cumulative request bytes at distSorted[i]

	totalReqs  float64
	totalBytes float64
}

// ComputeLRU builds the exact LRU miss-ratio curve for the trace.
func ComputeLRU(tr *trace.Trace) *Curve {
	n := tr.Len()
	f := newFenwick(n)
	lastPos := make(map[trace.ObjectID]int, 1024)

	type sample struct {
		dist  int64
		bytes float64
	}
	samples := make([]sample, 0, n)
	c := &Curve{}
	for i, r := range tr.Requests {
		c.totalReqs++
		c.totalBytes += float64(r.Size)
		if p, ok := lastPos[r.ID]; ok {
			// Unique bytes touched strictly between the two accesses:
			// every object's most recent access in (p, i) carries its
			// size as a marker.
			unique := f.Sum(p+1, i-1)
			samples = append(samples, sample{dist: unique + r.Size, bytes: float64(r.Size)})
			f.Add(p, -r.Size) // move o's marker from p to i
		}
		f.Add(i, r.Size)
		lastPos[r.ID] = i
	}

	sort.Slice(samples, func(a, b int) bool { return samples[a].dist < samples[b].dist })
	c.distSorted = make([]int64, len(samples))
	c.objCum = make([]float64, len(samples))
	c.byteCum = make([]float64, len(samples))
	var oc, bc float64
	for i, s := range samples {
		oc++
		bc += s.bytes
		c.distSorted[i] = s.dist
		c.objCum[i] = oc
		c.byteCum[i] = bc
	}
	return c
}

// hitIndex returns the number of samples with distance <= size.
func (c *Curve) hitIndex(size int64) int {
	return sort.Search(len(c.distSorted), func(i int) bool { return c.distSorted[i] > size })
}

// OHR returns the object hit ratio at the given cache size.
func (c *Curve) OHR(size int64) float64 {
	if c.totalReqs == 0 {
		return 0
	}
	i := c.hitIndex(size)
	if i == 0 {
		return 0
	}
	return c.objCum[i-1] / c.totalReqs
}

// BHR returns the byte hit ratio at the given cache size.
func (c *Curve) BHR(size int64) float64 {
	if c.totalBytes == 0 {
		return 0
	}
	i := c.hitIndex(size)
	if i == 0 {
		return 0
	}
	return c.byteCum[i-1] / c.totalBytes
}

// MaxUseful returns the smallest cache size at which the curve saturates
// (every reuse becomes a hit) — the trace's maximal useful cache size.
func (c *Curve) MaxUseful() int64 {
	if len(c.distSorted) == 0 {
		return 0
	}
	return c.distSorted[len(c.distSorted)-1]
}

// Point is one (size, hit-ratio) sample of a curve.
type Point struct {
	CacheSize int64
	BHR       float64
	OHR       float64
}

// Sample evaluates the curve at each size.
func (c *Curve) Sample(sizes []int64) []Point {
	pts := make([]Point, len(sizes))
	for i, s := range sizes {
		pts[i] = Point{CacheSize: s, BHR: c.BHR(s), OHR: c.OHR(s)}
	}
	return pts
}

// ComputeOPT samples the offline-optimal hit ratios at each cache size
// using the opt package (one exact sweep of the whole trace under uniform
// per-byte costs, the greedy otherwise — see opt.AlgoFlow). cfg.CacheSize
// is overridden per point. The schedule opt.Compute extracts is feasible
// (all-bytes-central extraction plus repair, or the greedy's rank-order
// admission), so each point is a lower bound on OPT, not an upper bound: an
// online policy can beat it, as the drift grid's negative regret does.
// The upper side (PFOO-U) is ROADMAP.md's OPT-bracket item. The sizes
// are solved concurrently under cfg.Workers (0 = all cores); each point
// writes only its own slot, so the curve is byte-identical for any
// worker count.
func ComputeOPT(tr *trace.Trace, sizes []int64, cfg opt.Config) ([]Point, error) {
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("mrc: non-positive cache size %d", s)
		}
	}
	pts := make([]Point, len(sizes))
	errs := make([]error, len(sizes))
	par.Ranges(len(sizes), cfg.Workers, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := cfg
			c.CacheSize = sizes[i]
			res, err := opt.Compute(tr, c)
			if err != nil {
				errs[i] = err
				continue
			}
			pts[i] = Point{CacheSize: sizes[i], BHR: res.BHR(), OHR: res.OHR()}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// LogSizes returns k cache sizes geometrically spaced in [lo, hi].
func LogSizes(lo, hi int64, k int) []int64 {
	if k < 2 || hi <= lo {
		return []int64{lo}
	}
	sizes := make([]int64, k)
	ratio := float64(hi) / float64(lo)
	for i := 0; i < k; i++ {
		sizes[i] = int64(float64(lo) * math.Pow(ratio, float64(i)/float64(k-1)))
	}
	sizes[k-1] = hi
	return sizes
}
