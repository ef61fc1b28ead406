// Package core stands in for the deterministic core: flow-determinism is
// scoped to it in the tests.
package core

import (
	"math/rand/v2"
	"os"
	"sort"
	"time"

	"fixture/helper"
	"fixture/helper/deep"
	"fixture/internal/obs"
)

// Package-level initializers run in the core too: a laundered clock read
// in a variable's value or in a package-level function literal is found.
var bootStamp = helper.Laundered() // want "nondeterministic (wall clock: helper.Laundered → deep.Stamp → time.Now"

var stampFn = func() int64 {
	return helper.Laundered() // want "nondeterministic (wall clock: helper.Laundered"
}

// Age measures against the wall clock directly.
func Age(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since reads the wall clock"
}

// Seeded builds explicitly seeded generators, through a helper and with
// math/rand/v2's constructors directly — allowed.
func Seeded(seed uint64) float64 {
	var key [32]byte
	pcg := rand.New(rand.NewPCG(seed, seed))
	cha := rand.New(rand.NewChaCha8(key))
	return helper.Seeded(int64(seed)) + pcg.Float64() + cha.Float64()
}

// Label computes a deterministic label but launders a wall-clock read
// through two helper hops.
func Label(x int) int64 {
	base := int64(helper.Clean(x)) // clean helper: no finding
	stamp := helper.Laundered()    // want "nondeterministic (wall clock: helper.Laundered → deep.Stamp → time.Now"
	return base + stamp
}

// Order leaks map iteration order from a helper into core output.
func Order(m map[string]int) []string {
	ks := helper.Keys(m) // want "nondeterministic (unordered map iteration"
	return ks
}

// Perturb launders a global-rand side effect: no value returned anywhere.
func Perturb(xs []int) {
	deep.Shuffle(xs) // want "nondeterministic (global math/rand"
}

// Configured reads the environment directly from core.
func Configured() string {
	return os.Getenv("LFO_MODE") // want "reads the process environment"
}

// LoadBytes reads the filesystem directly from core.
func LoadBytes(path string) []byte {
	b, err := os.ReadFile(path) // want "reads the filesystem"
	if err != nil {
		return nil
	}
	return b
}

// Timed uses the sanctioned telemetry boundary; no finding.
func Timed(start int64) int64 {
	return obs.LatencyNS(start)
}

// SortedOrder collects and sorts: the helper is tainted but this function
// never calls it; sorting its own map locally is the job of the syntactic
// map-order rule, not this one.
func SortedOrder(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Waived shows a reasoned waiver suppressing the finding.
func Waived() int64 {
	//lfolint:ignore flow-determinism fixture: demonstrates the waiver path
	return helper.Laundered()
}
