// Package trace defines the request trace model used throughout the LFO
// repository: a sequence of timestamped requests to sized objects, each with
// an optional retrieval cost.
//
// The on-disk text format is compatible with webcachesim-style traces:
//
//	<time> <object-id> <size> [<cost>]
//
// one request per line, whitespace separated.
package trace

import (
	"errors"
	"fmt"
	"math"
)

// ObjectID identifies a cached object. Production CDN traces anonymize URLs
// to dense integer identifiers; we follow that convention.
type ObjectID uint64

// Request is a single request in a trace.
//
// Cost is the retrieval cost charged when the request misses. Under the
// byte-hit-ratio (BHR) objective the cost equals the object size; under the
// object-hit-ratio (OHR) objective it is 1 (see §2.1 of the paper, and
// WithCosts).
type Request struct {
	// Time is a logical or wall-clock timestamp. Traces must be sorted by
	// non-decreasing Time.
	Time int64
	// ID identifies the requested object.
	ID ObjectID
	// Size is the object size in bytes. Sizes are assumed stable per
	// object within a trace window; Validate enforces this.
	Size int64
	// Cost is the retrieval cost of a miss for this request.
	Cost float64
}

// Trace is an ordered sequence of requests.
type Trace struct {
	Requests []Request
}

// Len returns the number of requests in the trace.
func (t *Trace) Len() int { return len(t.Requests) }

// Objective selects how per-request retrieval costs are assigned.
type Objective int

const (
	// ObjectiveBHR sets each request's cost to the object size, so that
	// minimizing miss cost maximizes the byte hit ratio.
	ObjectiveBHR Objective = iota
	// ObjectiveOHR sets each request's cost to 1, so that minimizing miss
	// cost maximizes the object hit ratio.
	ObjectiveOHR
	// ObjectiveCost keeps the per-request costs already present in the
	// trace (e.g. measured retrieval latencies).
	ObjectiveCost
)

// String returns the objective's short name.
func (o Objective) String() string {
	switch o {
	case ObjectiveBHR:
		return "bhr"
	case ObjectiveOHR:
		return "ohr"
	case ObjectiveCost:
		return "cost"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// ParseObjective parses "bhr", "ohr" or "cost".
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "bhr":
		return ObjectiveBHR, nil
	case "ohr":
		return ObjectiveOHR, nil
	case "cost":
		return ObjectiveCost, nil
	}
	return 0, fmt.Errorf("trace: unknown objective %q (want bhr, ohr or cost)", s)
}

// WithCosts returns a copy of t with request costs assigned per the
// objective. For ObjectiveCost the trace is returned unmodified (no copy).
func (t *Trace) WithCosts(o Objective) *Trace {
	if o == ObjectiveCost {
		return t
	}
	out := &Trace{Requests: make([]Request, len(t.Requests))}
	copy(out.Requests, t.Requests)
	for i := range out.Requests {
		switch o {
		case ObjectiveBHR:
			out.Requests[i].Cost = float64(out.Requests[i].Size)
		case ObjectiveOHR:
			out.Requests[i].Cost = 1
		}
	}
	return out
}

// ErrInvalidTrace is wrapped by all Validate errors.
var ErrInvalidTrace = errors.New("trace: invalid trace")

// Validate checks trace invariants: non-decreasing timestamps, positive
// sizes, finite non-negative costs, and per-object size stability. It
// returns nil for an empty trace. Read ends in it, so a trace that came
// from a file has passed.
func (t *Trace) Validate() error {
	sizes := make(map[ObjectID]int64)
	var prev int64
	for i, r := range t.Requests {
		if i > 0 && r.Time < prev {
			return fmt.Errorf("%w: request %d: time %d < previous %d", ErrInvalidTrace, i, r.Time, prev)
		}
		prev = r.Time
		if r.Size <= 0 {
			return fmt.Errorf("%w: request %d: non-positive size %d", ErrInvalidTrace, i, r.Size)
		}
		if !(r.Cost >= 0) || math.IsInf(r.Cost, 1) {
			return fmt.Errorf("%w: request %d: cost %g is not a finite non-negative number", ErrInvalidTrace, i, r.Cost)
		}
		if s, ok := sizes[r.ID]; ok {
			if s != r.Size {
				return fmt.Errorf("%w: request %d: object %d size changed %d -> %d", ErrInvalidTrace, i, r.ID, s, r.Size)
			}
		} else {
			sizes[r.ID] = r.Size
		}
	}
	return nil
}

// Stats summarizes a trace.
type Stats struct {
	Requests      int
	UniqueObjects int
	TotalBytes    int64 // sum of request sizes
	UniqueBytes   int64 // sum of distinct object sizes (working set)
	MinSize       int64
	MaxSize       int64
	MeanSize      float64
	OneHitWonders int // objects requested exactly once
}

// ComputeStats scans the trace once and returns summary statistics.
func (t *Trace) ComputeStats() Stats {
	var s Stats
	s.Requests = len(t.Requests)
	if s.Requests == 0 {
		return s
	}
	counts := make(map[ObjectID]int, 1024)
	sizes := make(map[ObjectID]int64, 1024)
	s.MinSize = t.Requests[0].Size
	for _, r := range t.Requests {
		counts[r.ID]++
		sizes[r.ID] = r.Size
		s.TotalBytes += r.Size
		if r.Size < s.MinSize {
			s.MinSize = r.Size
		}
		if r.Size > s.MaxSize {
			s.MaxSize = r.Size
		}
	}
	s.UniqueObjects = len(counts)
	for id, n := range counts {
		s.UniqueBytes += sizes[id]
		if n == 1 {
			s.OneHitWonders++
		}
	}
	s.MeanSize = float64(s.TotalBytes) / float64(s.Requests)
	return s
}

// Slice returns a sub-trace covering requests [lo, hi). The underlying
// request slice is shared, not copied.
func (t *Trace) Slice(lo, hi int) *Trace {
	if lo < 0 {
		lo = 0
	}
	if hi > len(t.Requests) {
		hi = len(t.Requests)
	}
	if lo > hi {
		lo = hi
	}
	return &Trace{Requests: t.Requests[lo:hi]}
}

// Windows splits the trace chronologically into consecutive windows of n
// requests each; the final window may be shorter. n must be positive.
func (t *Trace) Windows(n int) []*Trace {
	if n <= 0 {
		panic("trace: Windows requires n > 0")
	}
	var out []*Trace
	for lo := 0; lo < len(t.Requests); lo += n {
		hi := lo + n
		if hi > len(t.Requests) {
			hi = len(t.Requests)
		}
		out = append(out, t.Slice(lo, hi))
	}
	return out
}

// NextRequestIndex computes, for every request, the index of the next
// request to the same object, or -1 when the object is not requested again
// within the trace. This is the L_i quantity used by the OPT ranking in
// §2.1 and by several policies.
func (t *Trace) NextRequestIndex() []int {
	next := make([]int, len(t.Requests))
	last := make(map[ObjectID]int, 1024)
	for i := len(t.Requests) - 1; i >= 0; i-- {
		if j, ok := last[t.Requests[i].ID]; ok {
			next[i] = j
		} else {
			next[i] = -1
		}
		last[t.Requests[i].ID] = i
	}
	return next
}

// PrevRequestIndex computes, for every request, the index of the previous
// request to the same object, or -1 for an object's first request.
func (t *Trace) PrevRequestIndex() []int {
	prev := make([]int, len(t.Requests))
	last := make(map[ObjectID]int, 1024)
	for i := range t.Requests {
		if j, ok := last[t.Requests[i].ID]; ok {
			prev[i] = j
		} else {
			prev[i] = -1
		}
		last[t.Requests[i].ID] = i
	}
	return prev
}
