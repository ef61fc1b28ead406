package main

import (
	"fmt"
	"runtime"
	"time"

	"lfo/internal/core"
	"lfo/internal/gbdt"
	"lfo/internal/gen"
	"lfo/internal/obs"
	"lfo/internal/opt"
	"lfo/internal/trace"
)

// cacheSpec is one workload that replays a generated trace through
// core.LFO: the request path and the window handoff.
type cacheSpec struct {
	mix       func(requests int, seed int64) gen.Config
	window    int // W at scale 1
	cacheSize int64
	eviction  string
	algo      opt.Algorithm
	// admitAll sets Cutoff to CutoffAdmitAll. With the model deciding
	// admission, a learned-eviction cache is bistable: on some inputs the
	// model and evict-on-hit keep it below capacity, nothing is evicted and
	// the learned evictor idles (serve rate ×3, bhr −0.13 between two
	// seeds), and even when full the pick rate follows each window's model
	// (±30 % between seeds). Admitting every miss makes the pick rate the
	// miss ratio; the admission model is still trained and evaluated.
	admitAll bool
	// passS is what one pass costs on the reference 2-core box; it turns
	// --seconds into a pass count, so the work of a run depends on its
	// arguments only.
	passS float64
}

// cacheWindows is H: a pass is the bootstrap window and H model-served
// windows, with H−1 measured handoffs between them.
const cacheWindows = 2

// The windows are short (a tenth to a fifth of core's default of 50 000) and
// a pass has one measured handoff, so that a handoff is a second at most and
// a run repeats it often: on a shared box only the fastest of many short
// repeats of one piece of work is a steady number.
var cacheSpecs = map[string]cacheSpec{
	"admit_rank": {
		mix: gen.CDNMix, window: 10000, cacheSize: 64 << 20,
		eviction: "rank", algo: opt.AlgoGreedy, passS: 0.72,
	},
	"evict_learned": {
		mix: gen.WebMix, window: 5000, cacheSize: 16 << 20,
		eviction: "learned", algo: opt.AlgoGreedy, admitAll: true, passS: 0.95,
	},
	"default_flow": {
		mix: gen.CDNMix, window: 7000, cacheSize: 64 << 20,
		passS: 1.7,
	},
}

// config is the cache configuration of the workload. default_flow sets
// CacheSize and Workers and nothing else, which is what a user who only
// sizes the cache gets: AlgoAuto, i.e. the segmented exact flow.
func (s cacheSpec) config(window int, reg *obs.Registry) core.Config {
	cfg := core.Config{CacheSize: s.cacheSize, WindowSize: window, Workers: 1, Obs: reg}
	if s.eviction != "" {
		cfg.Eviction = s.eviction
		cfg.OPT.Algorithm = s.algo
		cfg.Seed = 1
		if s.admitAll {
			cfg.Cutoff = core.CutoffAdmitAll
		}
	}
	return cfg
}

// cacheRun is the state one pass leaves behind for the live-heap reading
// and the traced replays.
type cacheRun struct {
	tr    *trace.Trace
	cache *core.LFO
	// models[w] served window w (nil for the bootstrap window 0).
	models []*gbdt.Model
	// bounds[w] is when window w's first request started; handoffStart[w]
	// when the block that crosses into window w+1 started.
	bounds       []time.Time
	handoffStart []time.Time
	end          time.Time
	start        time.Time
	genS         float64
	// stageS[i] is the time measured handoff i spent inside OPT labeling and
	// the two trainings, read from the cache's own histograms (traced pass).
	stageS []float64
}

// stageNS is the total the cache's retrain-stage histograms hold.
func stageNS(reg *obs.Registry) int64 {
	total := int64(0)
	for _, name := range []string{"core_retrain_opt_ns", "core_retrain_train_ns", "core_retrain_evict_train_ns"} {
		total += reg.Histogram(name, obs.LatencyBounds).Sum()
	}
	return total
}

// cachePass replays (H+1)·W − 1 requests through a fresh cache. Window 0
// runs the admit-all bootstrap and its handoff deploys the first model:
// that is set-up. Windows 1..H are model-served; a block in which
// Windows() advanced is that handoff's sample and is left out of the
// serve statistics. The last window stops one request short of a handoff.
func cachePass(s cacheSpec, window, windows int, seed int64, reg *obs.Registry) (p pass, run cacheRun, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	run.start = time.Now()
	tr, err := input(s.mix, (windows+1)*window-1, seed)
	if err != nil {
		return p, run, err
	}
	run.genS = time.Since(run.start).Seconds()
	cache, err := core.New(s.config(window, reg))
	if err != nil {
		return p, run, err
	}
	for _, r := range tr.Requests[:window] {
		cache.Request(r)
	}
	if cache.Windows() != 1 || cache.Model() == nil {
		return p, run, fmt.Errorf("bootstrap window deployed no model (windows=%d)", cache.Windows())
	}
	run.tr, run.cache = tr, cache
	run.models = []*gbdt.Model{nil, cache.Model()}
	runtime.GC() // the measured phase starts without set-up's garbage
	p.setupS = time.Since(run.start).Seconds()

	reqs := tr.Requests[window:]
	p.units = make([]float64, 0, len(reqs)/blockSize+1)
	alloc0 := totalAlloc()
	win := 1
	var stages int64
	if reg != nil {
		stages = stageNS(reg)
	}
	prev := time.Now()
	run.bounds = []time.Time{run.start, prev}
	for lo := 0; lo < len(reqs); lo += blockSize {
		hi := lo + blockSize
		if hi > len(reqs) {
			hi = len(reqs)
		}
		for _, r := range reqs[lo:hi] {
			p.checksum *= 1099511628211
			p.bytes += r.Size
			if cache.Request(r) {
				p.hits++
				p.hitBytes += r.Size
				p.checksum ^= 1
			}
		}
		now := time.Now()
		d := now.Sub(prev).Seconds()
		if w := cache.Windows(); w != win {
			win = w
			p.handoffs = append(p.handoffs, d)
			run.handoffStart = append(run.handoffStart, prev)
			run.bounds = append(run.bounds, now)
			run.models = append(run.models, cache.Model())
			if reg != nil {
				after := stageNS(reg)
				run.stageS = append(run.stageS, float64(after-stages)/1e9)
				stages = after
			}
		} else {
			p.units = append(p.units, d)
			p.serveOps += int64(hi - lo)
		}
		prev = now
	}
	run.end = prev
	p.alloc = totalAlloc() - alloc0
	p.reqs = int64(len(reqs))
	p.allOps = p.reqs
	if len(p.handoffs) != windows-1 {
		return p, run, fmt.Errorf("measured %d handoffs, want %d", len(p.handoffs), windows-1)
	}
	return p, run, nil
}

// runCache runs one cache workload: K identical untraced passes, then,
// when tracing, one more pass with an obs.Registry attached and the
// per-layer replays.
func runCache(name string, o options) (*result, error) {
	s := cacheSpecs[name]
	window := int(float64(s.window) * o.scale)
	windows := cacheWindows
	passes := o.passCount(s.passS)
	res := &result{Workload: name, Seed: o.seed, Passes: passes}

	ps := make([]pass, 0, passes)
	var last cacheRun
	for k := 0; k < passes; k++ {
		last = cacheRun{} // only the newest pass's cache and trace stay live
		p, run, err := cachePass(s, window, windows, o.seed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", name, k, err)
		}
		res.Attempted += int64(run.tr.Len())
		ps = append(ps, p)
		last = run
	}
	heap := liveHeapMB()
	runtime.KeepAlive(last) // cache and trace count as live
	res.checkPasses(ps)
	res.Samples = len(ps[0].units)
	var err error
	if res.EndToEnd, err = endToEnd(ps, heap); err != nil {
		return nil, err
	}
	if o.trace {
		last = cacheRun{}
		if err := traceCache(res, s, window, windows, o.seed, ps); err != nil {
			return nil, err
		}
	}
	return res, nil
}
