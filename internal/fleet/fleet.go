// Package fleet serves admission predictions from a sharded fleet of
// prediction servers instead of a single process: a consistent-hash ring
// assigns every object ID a home shard, a client-side Router coalesces
// per-request admission queries into per-shard batches and keeps several
// batches in flight per connection (the mux envelope of internal/server),
// and a versioned model rollout hot-swaps the whole fleet atomically.
//
// Failure handling lifts the RemoteAdmitter posture (internal/core) from
// one connection to the ring: when a shard dies, only its key range
// degrades — rows that hash to it are answered by that shard's local
// SecondHitCensor, whose history was kept warm by observing every
// completed row, while the other shards keep serving model predictions.
// A recovered shard is re-admitted to the ring (and brought up to the
// current model version) after a deterministic, count-based probe.
//
// The Router is single-goroutine and synchronous, like server.Client:
// concurrency across shards comes from pipelining (the server works on
// shard A's batch while the router writes to shard B), not from client
// threads. Saturation is the harness's job (cmd/lfoload runs M routers).
package fleet

import (
	"fmt"
	"net"

	"lfo/internal/gbdt"
	"lfo/internal/obs"
	"lfo/internal/policy"
	"lfo/internal/server"
	"lfo/internal/sim"
)

// Defaults for Config knobs left zero.
const (
	// DefaultBatch is the admission batch size per shard.
	DefaultBatch = 64
	// DefaultMaxInFlight is the pipeline window: batches in flight per
	// shard connection before the router must read a response.
	DefaultMaxInFlight = 4
	// DefaultReplicas is the virtual points per shard on the ring.
	DefaultReplicas = 64
	// DefaultProbeEvery is the number of fallback rows a down shard
	// absorbs between reconnection attempts. Count-based (not timer
	// based) so recovery is deterministic under replay.
	DefaultProbeEvery = 32
)

// Config assembles a Router.
type Config struct {
	// Addrs are the shard addresses; position is the shard index.
	Addrs []string
	// Batch is rows per admission batch (0 → DefaultBatch).
	Batch int
	// MaxInFlight is the per-shard pipeline window (0 → DefaultMaxInFlight).
	MaxInFlight int
	// Replicas is virtual ring points per shard (0 → DefaultReplicas).
	Replicas int
	// ProbeEvery is fallback rows between reconnect probes for a down
	// shard (0 → DefaultProbeEvery).
	ProbeEvery int
	// Dial opens a shard connection; nil means net.Dial("tcp", addr).
	// Tests and the chaos harness substitute it to redirect shards.
	Dial func(addr string) (net.Conn, error)
	// NewFallback builds shard i's degraded-mode admitter; nil means
	// policy.NewSecondHitCensor(0).
	NewFallback func(shard int) sim.Admitter
	// MaxResponsePayload caps accepted response frames per connection
	// (0 → server.DefaultMuxResponseMax).
	MaxResponsePayload int
	// Obs, when set, receives per-shard counters under the
	// fleet_shard<i>_ prefix.
	Obs *obs.Registry
}

// flight is one in-flight admission batch: its correlation ID and row
// count. The rows themselves live in the shard's slab at the slot whose
// ring position matches the flight's.
type flight struct {
	id uint64
	n  int
}

// shard is the router's view of one fleet member.
type shard struct {
	addr string
	mc   *server.MuxConn
	up   bool

	// rows/dsts are fixed slabs of MaxInFlight×Batch entries. Slot s
	// (a ring position) covers [s·batch, s·batch+n): in-flight slots
	// hold the rows of their flight, and the open slot accumulates
	// pending rows. Destinations are caller pointers filled at
	// completion (remote probability or fallback likelihood).
	rows []server.AdmitRequest
	dsts []*float64
	// pn is pending rows in the open slot.
	pn int

	// fl is the flight ring: fl[flHead] is the oldest in-flight batch,
	// flLen the number in flight. The open slot is (flHead+flLen)%window.
	fl     []flight
	flHead int
	flLen  int

	// fallback answers this shard's key range while it is down and
	// observes every completed row so its history is warm the moment
	// degradation starts.
	fallback sim.Admitter
	// downRows counts fallback rows since the shard went down; every
	// ProbeEvery-th triggers a reconnect attempt.
	downRows int

	failovers *obs.Counter // failure events (one per kill), not rows
	fallbacks *obs.Counter // rows answered by the fallback heuristic
	batches   *obs.Counter // batches flushed to the wire
	served    *obs.Counter // rows completed remotely
}

// Router shards admission and prediction traffic over the fleet. It is
// synchronous and not safe for concurrent use; run one Router per client
// goroutine (cmd/lfoload runs M of them).
type Router struct {
	ring        *Ring
	shards      []shard
	batch       int
	maxInFlight int
	probeEvery  int
	maxResp     int
	dial        func(string) (net.Conn, error)
	nextID      uint64

	// version/model are the last Rollout arguments, re-pushed to a
	// recovered shard before it rejoins the ring; 0 means the shards'
	// boot-time model is current.
	version uint64
	model   *gbdt.Model

	// enqueueDown and onFail firewall the cold paths (outage fallback,
	// probing, failure drain) behind func values: the hotpath
	// allocation analysis stops at a dynamic call, so the per-row
	// steady-state path stays provably allocation-free while the
	// failure paths remain free to allocate.
	enqueueDown func(s *shard, req server.AdmitRequest, dst *float64)
	onFail      func(s *shard)
}

// NewRouter connects to every shard and returns the router. A shard that
// cannot be dialed starts down (its range degrades to the fallback until
// a probe brings it back); an error is returned only for bad
// configuration or if no shard is reachable at all.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("fleet: Config.Addrs is empty")
	}
	batch := cfg.Batch
	if batch == 0 {
		batch = DefaultBatch
	}
	window := cfg.MaxInFlight
	if window == 0 {
		window = DefaultMaxInFlight
	}
	replicas := cfg.Replicas
	if replicas == 0 {
		replicas = DefaultReplicas
	}
	probeEvery := cfg.ProbeEvery
	if probeEvery == 0 {
		probeEvery = DefaultProbeEvery
	}
	if batch < 1 || window < 1 || replicas < 1 || probeEvery < 1 {
		return nil, fmt.Errorf("fleet: Batch, MaxInFlight, Replicas and ProbeEvery must be positive")
	}
	dial := cfg.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	newFallback := cfg.NewFallback
	if newFallback == nil {
		newFallback = func(int) sim.Admitter { return policy.NewSecondHitCensor(0) }
	}

	r := &Router{
		ring:        NewRing(len(cfg.Addrs), replicas),
		shards:      make([]shard, len(cfg.Addrs)),
		batch:       batch,
		maxInFlight: window,
		probeEvery:  probeEvery,
		maxResp:     cfg.MaxResponsePayload,
		dial:        dial,
		nextID:      1,
	}
	r.enqueueDown = r.enqueueDownSlow
	r.onFail = r.failShard

	anyUp := false
	for i, addr := range cfg.Addrs {
		sreg := cfg.Obs.Prefixed(fmt.Sprintf("fleet_shard%d_", i))
		s := &r.shards[i]
		*s = shard{
			addr:      addr,
			rows:      make([]server.AdmitRequest, window*batch),
			dsts:      make([]*float64, window*batch),
			fl:        make([]flight, window),
			fallback:  newFallback(i),
			failovers: sreg.Counter("failovers_total"),
			fallbacks: sreg.Counter("fallback_rows_total"),
			batches:   sreg.Counter("batches_total"),
			served:    sreg.Counter("rows_total"),
		}
		if conn, err := dial(addr); err == nil {
			s.mc = server.NewMuxConn(conn)
			s.mc.MaxResponsePayload = r.maxResp
			s.up = true
			anyUp = true
		}
	}
	if !anyUp {
		r.closeAll()
		return nil, fmt.Errorf("fleet: none of the %d shards is reachable", len(cfg.Addrs))
	}
	return r, nil
}

// Shards returns the fleet size.
func (r *Router) Shards() int { return len(r.shards) }

// ShardUp reports whether shard i currently serves its key range.
func (r *Router) ShardUp(i int) bool { return r.shards[i].up }

// HomeShard returns the ring assignment for an object ID.
func (r *Router) HomeShard(id uint64) int { return r.ring.Shard(id) }

// Close flushes nothing and closes every live connection; in-flight rows
// are NOT completed — call Flush first if their results matter.
func (r *Router) Close() error {
	r.closeAll()
	return nil
}

func (r *Router) closeAll() {
	for i := range r.shards {
		s := &r.shards[i]
		if s.mc != nil {
			_ = s.mc.Close()
			s.mc = nil
		}
		s.up = false
	}
}
