// Package fleet serves admission predictions from a sharded fleet of
// prediction servers instead of a single process: a consistent-hash ring
// assigns every object ID a home shard, a client-side Router coalesces
// per-request admission queries into per-shard batches and keeps several
// batches in flight per connection (the tagged frames of internal/server),
// and a versioned model rollout hot-swaps the whole fleet atomically.
//
// The Router is the repository's one remote admitter (it implements
// sim.Admitter) and never fails the cache: the cache must answer even
// when the model path is late or down. When a shard dies — a dial, write,
// read or tag failure, or an I/O deadline that expires because
// the shard accepted and went silent — only its key range degrades: rows
// that hash to it are answered by that shard's local SecondHitCensor,
// whose history was kept warm by observing every completed row, while
// the other shards keep serving model predictions. A recovered shard is
// re-admitted to the ring (and brought up to the current model version)
// after a deterministic, count-based probe.
//
// The Router is the repository's one retry and fallback stack:
// server.Client is the bare synchronous round trip and fails fast, and a
// single prediction server is a one-address Router. The Router is
// single-goroutine and synchronous: concurrency across shards comes from
// pipelining (the server works on shard A's batch while the router writes
// to shard B), not from client threads. Saturating a fleet takes one
// Router per client goroutine.
package fleet

import (
	"fmt"
	"net"
	"time"

	"lfo/internal/gbdt"
	"lfo/internal/obs"
	"lfo/internal/policy"
	"lfo/internal/server"
	"lfo/internal/sim"
)

// Defaults for Config knobs left zero, and the constants no caller varies.
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
	// ProbeEvery is fallback rows between reconnect probes for a down
	// shard (0 → DefaultProbeEvery).
	ProbeEvery int
	// Dial opens a shard connection; nil means a TCP dial bounded by
	// server.DefaultClientTimeout. Tests and the chaos harness
	// substitute it to redirect shards.
	Dial func(addr string) (net.Conn, error)
	// Obs, when set, receives per-shard counters under the
	// fleet_shard<i>_ prefix.
	Obs *obs.Registry
	// Cutoff is the threshold Admit compares a remote likelihood
	// against: 0 means 0.5, sim.CutoffAdmitAll an effective cutoff of
	// exactly 0 (mirrors core.Config.Cutoff). Enqueue/Flush callers get
	// raw likelihoods and never see it.
	Cutoff float64
}

// flight is one in-flight admission batch: its tag and row
// count. The rows themselves live in the shard's slab at the slot whose
// ring position matches the flight's.
type flight struct {
	id uint64
	n  int
}

// shard is the router's view of one fleet member.
type shard struct {
	addr string
	// conn is mc's connection, kept beside it because the I/O deadline
	// is the Router's policy, not the codec's.
	conn net.Conn
	mc   *server.MuxConn
	up   bool
	// credit is how many more batches the deadline armed last covers;
	// 0 means the next batch arms a fresh one.
	credit int
	// queued reports batches in mc's queue that are not yet written.
	queued bool

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
	// fallbackRows counts every row the fallback answered and
	// fallbackAdmit is its decision on the last of them: how Admit
	// tells a fallback answer from a remote likelihood.
	fallbackRows  int
	fallbackAdmit bool

	failovers *obs.Counter // failure events (one per kill), not rows
	fallbacks *obs.Counter // rows answered by the fallback heuristic
	batches   *obs.Counter // batches flushed to the wire
	writes    *obs.Counter // Writes that carried them: batches/writes is frames per Write
	served    *obs.Counter // rows completed remotely
}

// Router shards admission traffic over the fleet. It is synchronous and
// not safe for concurrent use; run one Router per client goroutine.
type Router struct {
	ring        *Ring
	shards      []shard
	batch       int
	maxInFlight int
	probeEvery  int
	cutoff      float64
	// timeout bounds a shard's blocking I/O (see arm). A field only so
	// tests can shorten it; nothing else writes it.
	timeout time.Duration
	dial    func(string) (net.Conn, error)
	nextID  uint64
	// admitP is Admit's destination, owned by the Router so a call
	// allocates nothing.
	admitP float64

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
	probeEvery := cfg.ProbeEvery
	if probeEvery == 0 {
		probeEvery = DefaultProbeEvery
	}
	if batch < 1 || window < 1 || probeEvery < 1 {
		return nil, fmt.Errorf("fleet: Batch, MaxInFlight and ProbeEvery must be positive")
	}
	cutoff, err := sim.ResolveCutoff(cfg.Cutoff)
	if err != nil {
		return nil, fmt.Errorf("fleet: %v", err)
	}
	dial := cfg.Dial
	if dial == nil {
		d := &net.Dialer{Timeout: server.DefaultClientTimeout}
		dial = func(addr string) (net.Conn, error) { return d.Dial("tcp", addr) }
	}

	r := &Router{
		ring:        NewRing(len(cfg.Addrs), DefaultReplicas),
		shards:      make([]shard, len(cfg.Addrs)),
		batch:       batch,
		maxInFlight: window,
		probeEvery:  probeEvery,
		cutoff:      cutoff,
		timeout:     server.DefaultClientTimeout,
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
			fallback:  policy.NewSecondHitCensor(0),
			failovers: sreg.Counter("failovers_total"),
			fallbacks: sreg.Counter("fallback_rows_total"),
			batches:   sreg.Counter("batches_total"),
			writes:    sreg.Counter("writes_total"),
			served:    sreg.Counter("rows_total"),
		}
		if conn, err := dial(addr); err == nil {
			s.conn, s.mc = conn, server.NewMuxConn(conn)
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
		r.shards[i].disconnect()
	}
}
