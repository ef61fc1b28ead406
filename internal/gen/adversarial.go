package gen

import "lfo/internal/trace"

// Adversarial workload transforms, modeling the "unexpected (or even
// adversarial) traffic patterns" §1 of the paper says CDN servers face.
// They contaminate a base trace with cache-hostile request patterns.

// ScanConfig injects sequential scans: bursts of requests to fresh,
// never-reused objects (a crawler sweep or an attack). Scans pollute
// recency-based caches, evicting the hot set for objects that yield no
// future hits.
type ScanConfig struct {
	// Every inserts a scan burst after every `Every` base requests.
	Every int
	// Burst is the number of scan requests per burst.
	Burst int
	// ObjectSize is the size of scan objects in bytes.
	ObjectSize int64
}

// IsScan reports whether id names an object WithScans injected.
func IsScan(id trace.ObjectID) bool { return uint64(id) >= scanBase }

// WithScans returns a new trace interleaving scan bursts into the base
// trace. Scan objects use a dedicated ID namespace (see IsScan) and never
// repeat. Timestamps are rebased to remain non-decreasing.
func WithScans(base *trace.Trace, cfg ScanConfig) *trace.Trace {
	if cfg.Every <= 0 || cfg.Burst <= 0 || cfg.ObjectSize <= 0 {
		return base
	}
	out := &trace.Trace{Requests: make([]trace.Request, 0, base.Len()+base.Len()/cfg.Every*cfg.Burst)}
	nextScanID := scanBase
	now := int64(0)
	emit := func(r trace.Request) {
		if r.Time < now {
			r.Time = now
		}
		now = r.Time
		out.Requests = append(out.Requests, r)
	}
	for i, r := range base.Requests {
		emit(r)
		if (i+1)%cfg.Every == 0 {
			for b := 0; b < cfg.Burst; b++ {
				now++
				emit(trace.Request{
					Time: now,
					ID:   trace.ObjectID(nextScanID),
					Size: cfg.ObjectSize,
					Cost: float64(cfg.ObjectSize),
				})
				nextScanID++
			}
		}
	}
	return out
}
