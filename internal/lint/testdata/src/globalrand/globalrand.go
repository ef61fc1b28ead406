// Fixture for flow-determinism: direct draws from the global math/rand
// source.
package globalrand

import "math/rand"

// Draw uses the process-global source — forbidden.
func Draw() float64 {
	return rand.Float64() // want "rand.Float64 draws from the process-wide random source"
}

// Pick uses the process-global source — forbidden.
func Pick(n int) int {
	return rand.Intn(n) // want "rand.Intn draws from the process-wide random source"
}

// Seeded constructs an explicitly seeded generator — allowed.
func Seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// Method calls on a seeded *rand.Rand are allowed.
func UseRand(r *rand.Rand) int {
	return r.Intn(10)
}
