// Package helper is an out-of-scope utility package: the deterministic
// core calls into it, so taint must be tracked through it.
package helper

import (
	"math/rand"

	"fixture/helper/deep"
)

// Laundered hides a wall-clock read behind two helper hops.
func Laundered() int64 {
	return deep.Stamp() + 1
}

// Keys returns map keys in iteration order — a map-order taint source.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Seeded constructs an explicitly seeded generator; calls to it are fine.
func Seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// Clean is a pure helper; calls to it are fine.
func Clean(x int) int {
	return x * 2
}
