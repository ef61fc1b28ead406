package fleet

import "sort"

// Ring is a consistent-hash ring mapping object IDs to shard indices.
// Each shard contributes `replicas` virtual points; an object belongs to
// the shard owning the first point at or after the object's hash. The
// assignment depends only on (shards, replicas, id), so every client in a
// deployment routes identically, and a shard's key range is a stable
// property the router can degrade independently when that shard dies.
type Ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds the ring for `shards` shards with `replicas` virtual
// points each. It panics unless both are positive: no points, no owner.
func NewRing(shards, replicas int) *Ring {
	if shards <= 0 || replicas <= 0 {
		panic("fleet: ring needs a positive shard and replica count")
	}
	pts := make([]ringPoint, 0, shards*replicas)
	for s := 0; s < shards; s++ {
		for v := 0; v < replicas; v++ {
			pts = append(pts, ringPoint{hash: mix64(uint64(s)<<32 | uint64(v)), shard: s})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].shard < pts[j].shard // deterministic tie-break
	})
	return &Ring{points: pts}
}

// Shards returns the number of distinct shards on the ring.
func (r *Ring) Shards() int {
	n := 0
	for _, p := range r.points {
		if p.shard+1 > n {
			n = p.shard + 1
		}
	}
	return n
}

// Shard returns the shard index owning the object ID.
//
//lfo:hotpath
func (r *Ring) Shard(id uint64) int {
	h := mix64(id)
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0 // wrap past the last point
	}
	return r.points[lo].shard
}

// mix64 is the SplitMix64 finalizer: a cheap, well-avalanched 64-bit
// mixer so sequential object IDs spread uniformly over the ring.
//
//lfo:hotpath
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
