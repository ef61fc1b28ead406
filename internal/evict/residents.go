package evict

import (
	"lfo/internal/obs"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// Residents is a cache's resident set under one eviction strategy: the
// byte-accurate store, the Evictor that picks its victims, and the one
// make-room-then-add loop that joins them. LFO, Cache, TinyLFU and
// AdaptSize each own one; they differ in who decides admission and in the
// score they hand over.
type Residents struct {
	Store   *sim.Store[Meta]
	Evictor Evictor

	// Victims by size tier, counted where the eviction happens so every
	// cache and every strategy reports them alike.
	victims       *obs.Counter
	victimsSmall  *obs.Counter
	victimsMedium *obs.Counter
	victimsLarge  *obs.Counter
}

// NewResidents returns an empty resident set of the given capacity in
// bytes under the named eviction strategy (see NewEvictor).
func NewResidents(capacity int64, kind string, opts Options) (*Residents, error) {
	store := sim.NewStore[Meta](capacity)
	ev, err := NewEvictor(kind, store, opts)
	if err != nil {
		return nil, err
	}
	return &Residents{
		Store:         store,
		Evictor:       ev,
		victims:       opts.Obs.Counter("evict_victims_total"),
		victimsSmall:  opts.Obs.Counter("evict_victims_small_total"),
		victimsMedium: opts.Obs.Counter("evict_victims_medium_total"),
		victimsLarge:  opts.Obs.Counter("evict_victims_large_total"),
	}, nil
}

// Admit evicts the strategy's victims until r fits, adds it, and hands
// the new entry to the evictor with the likelihood its cache scored it
// with. The caller has checked r.Size <= Store.Capacity(). This is the
// per-request store/eviction loop of every cache here, so it is held to
// the zero-allocation discipline; the hooks behind the interface cannot
// be followed statically and carry their own annotations and alloc pins.
//
//lfo:hotpath
func (s *Residents) Admit(r trace.Request, score float64) {
	for !s.Store.Fits(r.Size) {
		//lfolint:ignore hotpath-alloc strategy dispatch: Ranked.Victim and Learned.pickVictim are annotated, BenchmarkPickVictim pins 0 allocs
		s.Evict(s.Evictor.Victim(r.Time))
	}
	e := s.Store.Add(r.ID, r.Size)
	e.Payload.Score = score
	//lfolint:ignore hotpath-alloc strategy dispatch: a queue push or list link over recycled entries, annotated on Ranked
	s.Evictor.OnAdmit(e, r)
}

// Evict removes the resident id as a victim: one step of Admit's loop, for
// a cache that weighs each victim before it lets it go (TinyLFU's duel).
func (s *Residents) Evict(id trace.ObjectID) {
	victim := s.Store.Remove(id)
	s.countVictim(victim.Size)
	//lfolint:ignore hotpath-alloc strategy dispatch: a queue or list unlink, annotated on Ranked
	s.Evictor.OnRemove(victim)
}

// Victim size-tier boundaries for the victims-by-tier counters.
const (
	tierSmallMax  = 64 << 10 // < 64 KiB
	tierMediumMax = 1 << 20  // < 1 MiB
)

// countVictim records one eviction in the total and size-tier counters.
func (s *Residents) countVictim(size int64) {
	s.victims.Inc()
	switch {
	case size < tierSmallMax:
		s.victimsSmall.Inc()
	case size < tierMediumMax:
		s.victimsMedium.Inc()
	default:
		s.victimsLarge.Inc()
	}
}
