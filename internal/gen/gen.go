package gen

import (
	"fmt"
	"math/rand"

	"lfo/internal/trace"
)

// ContentClass describes one content type served by a CDN server, e.g.
// small photos with a long popularity tail, or huge software downloads.
type ContentClass struct {
	// Name labels the class (for documentation only).
	Name string
	// Objects is the size of the class's object universe.
	Objects uint64
	// ZipfAlpha is the popularity skew (P(rank k) ∝ 1/k^alpha).
	ZipfAlpha float64
	// Sizes draws object sizes for the class.
	Sizes SizeModel
	// Weight is the class's relative share of requests (need not be
	// normalized across classes).
	Weight float64
}

// DriftEvent changes the traffic mix mid-trace, modeling load-balancer
// shifts and flash crowds (§1 of the paper: "content mix changes can
// happen within minutes").
type DriftEvent struct {
	// At is the fraction of the trace (0..1) at which the event fires.
	At float64
	// Class indexes into Config.Classes.
	Class int
	// NewWeight replaces the class's weight.
	NewWeight float64
	// Reshuffle, when true, remaps the class's object identifiers so the
	// popular set changes entirely (a cold shift, like traffic moving in
	// from another CDN).
	Reshuffle bool
}

// Config parameterizes the trace generator.
type Config struct {
	// Requests is the trace length.
	Requests int
	// Seed makes the trace reproducible.
	Seed int64
	// Classes is the content mix. Must be non-empty.
	Classes []ContentClass
	// Drift optionally changes the mix mid-trace.
	Drift []DriftEvent
	// MeanInterarrival is the mean logical-time gap between requests.
	// Zero or negative means 1 (time equals request index). Gaps are
	// geometric around the mean so timestamps remain integral and
	// non-decreasing.
	MeanInterarrival float64
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Requests <= 0 {
		return fmt.Errorf("gen: Requests must be positive, got %d", c.Requests)
	}
	if len(c.Classes) == 0 || len(c.Classes) > maxClasses {
		return fmt.Errorf("gen: between 1 and %d content classes required, got %d", maxClasses, len(c.Classes))
	}
	for i, cl := range c.Classes {
		if cl.Objects == 0 {
			return fmt.Errorf("gen: class %d (%s): Objects must be positive", i, cl.Name)
		}
		if cl.ZipfAlpha <= 0 {
			return fmt.Errorf("gen: class %d (%s): ZipfAlpha must be positive", i, cl.Name)
		}
		if cl.Sizes == nil {
			return fmt.Errorf("gen: class %d (%s): Sizes model required", i, cl.Name)
		}
		if cl.Weight < 0 {
			return fmt.Errorf("gen: class %d (%s): negative Weight", i, cl.Name)
		}
	}
	for i, d := range c.Drift {
		if d.Class < 0 || d.Class >= len(c.Classes) {
			return fmt.Errorf("gen: drift %d: class index %d out of range", i, d.Class)
		}
		if d.At < 0 || d.At > 1 {
			return fmt.Errorf("gen: drift %d: At %g outside [0,1]", i, d.At)
		}
	}
	return nil
}

// classState is the mutable per-class generator state.
type classState struct {
	zipf   *Zipf
	weight float64
	// epoch shifts object IDs on Reshuffle drift events.
	epoch uint64
}

// Generate produces a trace from the config. Object sizes are stable per
// object ID, and the result always passes trace.Validate.
func Generate(cfg Config) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	states := make([]*classState, len(cfg.Classes))
	for i, cl := range cfg.Classes {
		states[i] = &classState{
			zipf:   NewZipf(rng, cl.ZipfAlpha, cl.Objects),
			weight: cl.Weight,
		}
	}

	drift := append([]DriftEvent(nil), cfg.Drift...)
	// Process drift events in order of At; insertion sort keeps it simple.
	for i := 1; i < len(drift); i++ {
		for j := i; j > 0 && drift[j].At < drift[j-1].At; j-- {
			drift[j], drift[j-1] = drift[j-1], drift[j]
		}
	}

	mean := cfg.MeanInterarrival
	if mean <= 0 {
		mean = 1
	}

	sizes := make(map[trace.ObjectID]int64, 1024)
	t := &trace.Trace{Requests: make([]trace.Request, 0, cfg.Requests)}
	now := int64(0)
	nextDrift := 0
	for i := 0; i < cfg.Requests; i++ {
		frac := float64(i) / float64(cfg.Requests)
		for nextDrift < len(drift) && drift[nextDrift].At <= frac {
			d := drift[nextDrift]
			states[d.Class].weight = d.NewWeight
			if d.Reshuffle {
				states[d.Class].epoch++
			}
			nextDrift++
		}

		ci := pickClass(rng, states)
		st := states[ci]
		rank := st.zipf.Next() // 1-based
		id := makeID(ci, st.epoch, rank-1)

		size, ok := sizes[id]
		if !ok {
			size = cfg.Classes[ci].Sizes.Sample(rng)
			sizes[id] = size
		}

		t.Requests = append(t.Requests, trace.Request{
			Time: now,
			ID:   id,
			Size: size,
			Cost: float64(size), // BHR convention; callers can re-cost via WithCosts
		})

		gap := int64(1)
		if mean > 1 {
			// Geometric gap with the configured mean (mean >= 1).
			p := 1 / mean
			for rng.Float64() >= p {
				gap++
			}
		}
		now += gap
	}
	return t, nil
}

// Generated IDs are class<<56 for at most maxClasses classes, so all of
// them lie below scanBase, where WithScans numbers its objects (IsScan).
const (
	maxClasses = 16
	scanBase   = uint64(maxClasses) << 56
)

// makeID packs (class, epoch, object index) into a single ObjectID.
// Layout: 8 bits class | 8 bits epoch | 48 bits object.
func makeID(class int, epoch, obj uint64) trace.ObjectID {
	return trace.ObjectID(uint64(class)<<56 | (epoch&0xff)<<48 | (obj & ((1 << 48) - 1)))
}

// pickClass samples a class index proportionally to current weights.
func pickClass(rng *rand.Rand, states []*classState) int {
	total := 0.0
	for _, st := range states {
		total += st.weight
	}
	if total <= 0 {
		return 0
	}
	x := rng.Float64() * total
	for i, st := range states {
		x -= st.weight
		if x < 0 {
			return i
		}
	}
	return len(states) - 1
}
