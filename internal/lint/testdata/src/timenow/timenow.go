// Fixture for flow-determinism: direct wall-clock reads.
package timenow

import "time"

// Stamp reads the wall clock — forbidden in the deterministic core.
func Stamp() int64 {
	t := time.Now() // want "time.Now reads the wall clock"
	return t.UnixNano()
}

// FromTrace builds a time from trace data — allowed.
func FromTrace(ts int64) time.Time {
	return time.Unix(0, ts)
}

// Elapsed uses a passed-in reference point — allowed.
func Elapsed(start, now time.Time) time.Duration {
	return now.Sub(start)
}
