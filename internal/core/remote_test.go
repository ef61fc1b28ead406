package core

import (
	"errors"
	"testing"

	"lfo/internal/obs"
	"lfo/internal/server"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// RemoteAdmitter must satisfy the admission interface.
var _ sim.Admitter = (*RemoteAdmitter)(nil)

// fakePredictor scripts remote responses: each call pops the next entry.
type fakePredictor struct {
	probs []float64 // one response likelihood per call
	errs  []error   // non-nil → the call fails
	calls int
	last  []server.AdmitRequest
}

func (f *fakePredictor) Admit(reqs []server.AdmitRequest) ([]float64, error) {
	i := f.calls
	f.calls++
	f.last = append([]server.AdmitRequest(nil), reqs...)
	if i < len(f.errs) && f.errs[i] != nil {
		return nil, f.errs[i]
	}
	if i < len(f.probs) {
		return []float64{f.probs[i]}, nil
	}
	return []float64{1}, nil
}

func remoteReq(id trace.ObjectID) trace.Request {
	return trace.Request{Time: int64(id), ID: id, Size: 100, Cost: 2}
}

func TestRemoteAdmitterUsesRemoteLikelihood(t *testing.T) {
	f := &fakePredictor{probs: []float64{0.9, 0.1}}
	reg := obs.NewRegistry()
	a, err := NewRemoteAdmitter(f, RemoteAdmitterConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if ok, lik := a.Admit(remoteReq(1), 500); !ok || lik != 0.9 {
		t.Errorf("Admit = (%v, %v), want (true, 0.9)", ok, lik)
	}
	if ok, lik := a.Admit(remoteReq(2), 500); ok || lik != 0.1 {
		t.Errorf("Admit = (%v, %v), want (false, 0.1)", ok, lik)
	}
	if got := reg.Counter("core_remote_predictions_total").Value(); got != 2 {
		t.Errorf("predictions counter = %d, want 2", got)
	}
	if got := reg.Counter("core_remote_fallbacks_total").Value(); got != 0 {
		t.Errorf("fallbacks counter = %d, want 0", got)
	}
	// The wire tuple carries the request and free bytes faithfully.
	want := server.AdmitRequest{Time: 2, ID: 2, Size: 100, Cost: 2, Free: 500}
	if len(f.last) != 1 || f.last[0] != want {
		t.Errorf("wire tuple %+v, want %+v", f.last, want)
	}
}

func TestRemoteAdmitterFallsBackOnError(t *testing.T) {
	boom := errors.New("injected remote failure")
	f := &fakePredictor{errs: []error{boom, boom}}
	reg := obs.NewRegistry()
	a, err := NewRemoteAdmitter(f, RemoteAdmitterConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Default fallback is the second-hit censor: first sight denied...
	if ok, _ := a.Admit(remoteReq(7), 0); ok {
		t.Error("fallback admitted an unseen object")
	}
	a.Observe(remoteReq(7))
	// ...second sight admitted, still through the fallback.
	if ok, _ := a.Admit(remoteReq(7), 0); !ok {
		t.Error("fallback denied a previously seen object")
	}
	if got := reg.Counter("core_remote_errors_total").Value(); got != 2 {
		t.Errorf("errors counter = %d, want 2", got)
	}
	if got := reg.Counter("core_remote_fallbacks_total").Value(); got != 2 {
		t.Errorf("fallbacks counter = %d, want 2", got)
	}
	if got := reg.Counter("core_remote_predictions_total").Value(); got != 0 {
		t.Errorf("predictions counter = %d, want 0", got)
	}
}

func TestRemoteAdmitterRecoversAfterDegradation(t *testing.T) {
	f := &fakePredictor{probs: []float64{0, 0.8}, errs: []error{errors.New("blip"), nil}}
	a, err := NewRemoteAdmitter(f, RemoteAdmitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a.Admit(remoteReq(1), 0) // degraded call
	if ok, lik := a.Admit(remoteReq(2), 0); !ok || lik != 0.8 {
		t.Errorf("post-recovery Admit = (%v, %v), want (true, 0.8)", ok, lik)
	}
}

func TestRemoteAdmitterCutoff(t *testing.T) {
	f := &fakePredictor{probs: []float64{0.3, 0.3}}
	a, err := NewRemoteAdmitter(f, RemoteAdmitterConfig{Cutoff: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := a.Admit(remoteReq(1), 0); !ok {
		t.Error("likelihood 0.3 denied at cutoff 0.25")
	}
	aAll, err := NewRemoteAdmitter(&fakePredictor{probs: []float64{0}}, RemoteAdmitterConfig{Cutoff: CutoffAdmitAll})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := aAll.Admit(remoteReq(1), 0); !ok {
		t.Error("CutoffAdmitAll denied a scored request")
	}
	if _, err := NewRemoteAdmitter(f, RemoteAdmitterConfig{Cutoff: 1.5}); err == nil {
		t.Error("out-of-range cutoff accepted")
	}
	if _, err := NewRemoteAdmitter(nil, RemoteAdmitterConfig{}); err == nil {
		t.Error("nil predictor accepted")
	}
}

// badLenPredictor returns the wrong number of probabilities.
type badLenPredictor struct{}

func (badLenPredictor) Admit(reqs []server.AdmitRequest) ([]float64, error) {
	return []float64{1, 1}, nil
}

func TestRemoteAdmitterFallsBackOnBadResponseShape(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := NewRemoteAdmitter(badLenPredictor{}, RemoteAdmitterConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	a.Admit(remoteReq(1), 0)
	if got := reg.Counter("core_remote_fallbacks_total").Value(); got != 1 {
		t.Errorf("fallbacks counter = %d, want 1", got)
	}
}
