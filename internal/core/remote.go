package core

import (
	"fmt"

	"lfo/internal/obs"
	"lfo/internal/policy"
	"lfo/internal/server"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// RemotePredictor is the client surface RemoteAdmitter consults —
// satisfied by *server.Client (the compact stateful opAdmit protocol).
type RemotePredictor interface {
	Admit(reqs []server.AdmitRequest) ([]float64, error)
}

// RemoteAdmitterConfig tunes a RemoteAdmitter.
type RemoteAdmitterConfig struct {
	// Cutoff is the admission threshold on the remote likelihood. 0
	// means 0.5; CutoffAdmitAll means an effective cutoff of exactly 0
	// (mirrors Config.Cutoff).
	Cutoff float64
	// Fallback is the heuristic used when the remote call errors or
	// times out. Nil means policy.NewSecondHitCensor(0).
	Fallback sim.Admitter
	// Obs, when set, counts remote predictions, remote errors, and
	// heuristic fallbacks.
	Obs *obs.Registry
}

type remoteMetrics struct {
	predictions *obs.Counter
	errors      *obs.Counter
	fallbacks   *obs.Counter
}

func newRemoteMetrics(r *obs.Registry) remoteMetrics {
	return remoteMetrics{
		predictions: r.Counter("core_remote_predictions_total"),
		errors:      r.Counter("core_remote_errors_total"),
		fallbacks:   r.Counter("core_remote_fallbacks_total"),
	}
}

// RemoteAdmitter is the graceful-degradation admission path: it asks a
// prediction server for the admission likelihood and, when the remote
// call fails (error, timeout, bad response), falls back to a local
// heuristic instead of failing the request — the Cold-RL-style "the cache
// must answer even when the model path is down" posture. Every fallback
// is counted, never silently absorbed.
//
// It implements sim.Admitter. The fallback's Observe is fed on every
// request, so its history is warm the moment degradation starts, not cold
// from that point on.
//
// Like server.Client, it is synchronous and not safe for concurrent use.
type RemoteAdmitter struct {
	remote   RemotePredictor
	cutoff   float64
	fallback sim.Admitter
	m        remoteMetrics
	req      [1]server.AdmitRequest // reused per call; RemoteAdmitter is single-goroutine
}

// NewRemoteAdmitter wires a remote predictor to a fallback heuristic.
func NewRemoteAdmitter(remote RemotePredictor, cfg RemoteAdmitterConfig) (*RemoteAdmitter, error) {
	if remote == nil {
		return nil, fmt.Errorf("core: RemoteAdmitter needs a RemotePredictor")
	}
	cutoff, err := sim.ResolveCutoff(cfg.Cutoff)
	if err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	fallback := cfg.Fallback
	if fallback == nil {
		fallback = policy.NewSecondHitCensor(0)
	}
	return &RemoteAdmitter{
		remote:   remote,
		cutoff:   cutoff,
		fallback: fallback,
		m:        newRemoteMetrics(cfg.Obs),
	}, nil
}

// Admit consults the remote model; on any remote failure it degrades to
// the fallback heuristic and counts the event.
func (a *RemoteAdmitter) Admit(r trace.Request, freeBytes int64) (bool, float64) {
	a.req[0] = server.AdmitRequest{
		Time: r.Time,
		ID:   uint64(r.ID),
		Size: r.Size,
		Cost: r.Cost,
		Free: freeBytes,
	}
	probs, err := a.remote.Admit(a.req[:])
	if err != nil || len(probs) != 1 {
		a.m.errors.Inc()
		a.m.fallbacks.Inc()
		return a.fallback.Admit(r, freeBytes)
	}
	a.m.predictions.Inc()
	return probs[0] >= a.cutoff, probs[0]
}

// Observe feeds the fallback's request history (the remote server tracks
// its own history per connection).
func (a *RemoteAdmitter) Observe(r trace.Request) {
	a.fallback.Observe(r)
}
