package server

import (
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStressPredictWithModelSwap hammers the server from many client
// goroutines while other goroutines keep rolling the deployed model
// forward by versioned pushes — the production pattern of LFO's
// per-window handoff under live traffic. Two pushers race for versions on
// connections of their own, so a push may land after a newer one and be
// refused as stale, and the newest push must be what stays deployed. Run
// under -race (scripts/check.sh does) to catch unsynchronized model or
// connection state.
func TestStressPredictWithModelSwap(t *testing.T) {
	modelA := testModel(t)
	modelB := testModelBiased(t)
	s, addr := startServer(t, modelA)

	const (
		clients  = 8
		churners = 4
		pushers  = 2
		requests = 60
		rowsPer  = 16
	)

	// Pushers: roll the next version out as fast as they can until stopped.
	var stop atomic.Bool
	var version, swaps atomic.Uint64
	var pushWG sync.WaitGroup
	for p := 0; p < pushers; p++ {
		pushWG.Add(1)
		go func() {
			defer pushWG.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			mc := NewMuxConn(conn)
			defer mc.Close()
			for !stop.Load() {
				v, m := version.Add(1), modelA
				if v%2 == 1 {
					m = modelB
				}
				if err := mc.Rollout(v, m); err == nil {
					swaps.Add(1)
				} else if !strings.Contains(err.Error(), "stale model swap") {
					t.Errorf("rollout of version %d: %v", v, err)
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients+churners)

	// Steady clients: one connection each, a stream of admit batches.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < requests; i++ {
				probs, err := cl.Admit(randAdmitBatch(rng, rowsPer))
				if err != nil {
					errs <- err
					return
				}
				if len(probs) != rowsPer {
					t.Errorf("got %d probs, want %d", len(probs), rowsPer)
					return
				}
				for _, p := range probs {
					if p < 0 || p > 1 {
						t.Errorf("probability %g outside [0,1]", p)
						return
					}
				}
			}
		}(int64(c + 1))
	}

	// Connection churners: dial, fire one request, hang up. Exercises the
	// accept/teardown paths that share the connection set with Close.
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20; i++ {
				cl, err := Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				_, aerr := cl.Admit(randAdmitBatch(rng, 1))
				cerr := cl.Close()
				if aerr != nil {
					errs <- aerr
					return
				}
				if cerr != nil {
					errs <- cerr
					return
				}
			}
		}(int64(100 + c))
	}

	wg.Wait()
	stop.Store(true)
	pushWG.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("client error: %v", err)
	}
	if swaps.Load() == 0 {
		t.Error("no rollout was ever acked")
	}
	// No push is newer than the last version handed out, so it was acked
	// and nothing after it could replace it.
	if got, want := s.ModelVersion(), version.Load(); got != want {
		t.Errorf("deployed version %d, want the newest push %d", got, want)
	}
}
