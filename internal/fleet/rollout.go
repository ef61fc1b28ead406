package fleet

import (
	"fmt"

	"lfo/internal/features"
	"lfo/internal/gbdt"
)

// Rollout hot-swaps the fleet to a new model version: all admission
// traffic is flushed first (the swap frame shares each shard's pipelined
// connection, and the server answers strictly in order), then the
// versioned model is broadcast to every live shard. The broadcast is
// eventually consistent by construction: a down shard — or one that
// dies mid-broadcast and fails over here — receives the recorded
// version when it recovers, before rejoining the ring, so an error is
// returned only for invalid arguments — among them a model whose width
// is not features.Dim — never for fleet state.
func (r *Router) Rollout(version uint64, m *gbdt.Model) error {
	if version == 0 {
		return fmt.Errorf("fleet: model version 0 is reserved")
	}
	if m == nil {
		return fmt.Errorf("fleet: Rollout needs a model")
	}
	if m.Dim != features.Dim {
		// Every shard would refuse it, and a recovered shard would be
		// pushed it again on every reconnect.
		return fmt.Errorf("fleet: model scores %d features, want %d", m.Dim, features.Dim)
	}
	if version < r.version {
		return fmt.Errorf("fleet: rollout version %d is older than current %d", version, r.version)
	}
	r.Flush()
	r.version, r.model = version, m
	for i := range r.shards {
		s := &r.shards[i]
		if !s.up {
			continue // pushed by reconnect on recovery
		}
		r.arm(s, 0)
		if err := s.mc.Rollout(version, m); err != nil {
			r.failShard(s) // recovery will re-push r.version
		}
	}
	return nil
}

// ModelVersion returns the last version Rollout broadcast (0 until the
// first rollout: shards serve their boot-time model).
func (r *Router) ModelVersion() uint64 { return r.version }
