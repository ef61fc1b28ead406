package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"lfo/internal/gbdt"
	"lfo/internal/gen"
	"lfo/internal/opt"
	"lfo/internal/trace"
)

// The pins below were recorded at the parent of PR 17 (commit b9341ae),
// when rank mode was a pq.Queue inside LFO beside a separate evictor
// path and the synchronous handoff was its own function. They hold the
// single request path and the single handoff to that behaviour: every
// hit/miss decision, the bytes left resident, the drift trigger's count
// and the last deployed model, for every eviction mode with and without
// evict-on-hit, on both mixes, for sequential and parallel handoffs.

const (
	pinWindow  = 2000
	pinWindows = 3
)

// pinCase is one cell of the grid.
type pinCase struct {
	mix          string
	eviction     string
	noEvictOnHit bool
	bridge       bool // HybridLR + DriftThreshold, rank mode only
}

func (c pinCase) name() string {
	n := c.mix + "/" + c.eviction
	if c.noEvictOnHit {
		n += "/keep-on-hit"
	}
	if c.bridge {
		n += "/bridge"
	}
	return n
}

// config is the cell's cache configuration. Either cache holds a few
// dozen objects of its mix, so both evict all the time; the bridge cell sets a threshold low enough that the trigger
// fires on the generators' ordinary traffic.
func (c pinCase) config(workers int) Config {
	cfg := Config{
		CacheSize:         1 << 20,
		WindowSize:        pinWindow,
		OPT:               opt.Config{Algorithm: opt.AlgoGreedy},
		Eviction:          c.eviction,
		DisableEvictOnHit: c.noEvictOnHit,
		Seed:              3,
		Workers:           workers,
	}
	cfg.GBDT = gbdt.DefaultParams()
	cfg.GBDT.NumIterations = 10 // a third of the default: the grid runs under -race too
	if c.mix == "cdn" {
		cfg.CacheSize = 64 << 20
	}
	if c.bridge {
		cfg.HybridLR = 0.05
		cfg.DriftThreshold = 0.05
		cfg.DriftCheckEvery = 100
	}
	return cfg
}

func (c pinCase) trace(t *testing.T) *trace.Trace {
	t.Helper()
	mix := gen.WebMix
	if c.mix == "cdn" {
		mix = gen.CDNMix
	}
	n := pinWindows * pinWindow
	if c.bridge {
		n += 2 * pinWindow // the trigger arms after two handoffs
	}
	tr, err := gen.Generate(mix(n, 17))
	if err != nil {
		t.Fatal(err)
	}
	return tr.WithCosts(trace.ObjectiveBHR)
}

func pinGrid() []pinCase {
	var grid []pinCase
	for _, mix := range []string{"web", "cdn"} {
		for _, ev := range []string{"rank", "learned", "gdsf", "lru"} {
			grid = append(grid, pinCase{mix: mix, eviction: ev}, pinCase{mix: mix, eviction: ev, noEvictOnHit: true})
		}
		grid = append(grid, pinCase{mix: mix, eviction: "rank", bridge: true})
	}
	return grid
}

// replay runs tr through the cache, Closes it, and digests what the
// refactor must not move; after, when set, runs after every Request. On the
// way it holds the
// cache to its invariants at every request: a hit is returned exactly for
// an object that was resident, the residents fit the capacity, and the
// evictor's queue or list holds exactly the residents (the learned evictor
// keeps no structure of its own; it samples the store's index).
func replay(t *testing.T, lfo *LFO, tr *trace.Trace, after func()) string {
	t.Helper()
	store := lfo.res.Store
	tracked, _ := lfo.res.Evictor.(interface{ Len() int })
	hits := make([]byte, tr.Len())
	for i, r := range tr.Requests {
		resident := store.Has(r.ID)
		hit := lfo.Request(r)
		if hit {
			hits[i] = 1
		}
		if after != nil {
			after()
		}
		if hit != resident {
			t.Fatalf("request %d (id %d): hit=%v but resident before the call=%v", i, r.ID, hit, resident)
		}
		if store.Used() > store.Capacity() {
			t.Fatalf("request %d: %d bytes resident in a cache of %d", i, store.Used(), store.Capacity())
		}
		if tracked != nil && tracked.Len() != store.Len() {
			t.Fatalf("request %d: the %s evictor tracks %d objects, the store holds %d",
				i, lfo.res.Evictor.Name(), tracked.Len(), store.Len())
		}
	}
	lfo.Close()
	h := sha256.New()
	h.Write(hits)
	var tail [16]byte
	binary.LittleEndian.PutUint64(tail[:8], uint64(store.Used()))
	binary.LittleEndian.PutUint64(tail[8:], uint64(lfo.EarlyRetrains()))
	h.Write(tail[:])
	var model bytes.Buffer
	if err := lfo.Model().Save(&model); err != nil {
		t.Fatal(err)
	}
	h.Write(model.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}

var refactorPins = map[string]string{
	"web/rank":                "166519112279fda5331004324f0d5cdca37d832c4cba4ced4db161f0d1234dd7",
	"web/rank/keep-on-hit":    "fe12fbe492b74eff2dfc5b58871d42010c36eb7e7f2da2f010113207678ae727",
	"web/learned":             "368eca3ddcfd79a49f9540a43071289cae01ce037affbd17337f3a7ed226417d",
	"web/learned/keep-on-hit": "46ae0e70e98b8ac2370b0d79f33b78bceab46d56a80c319eaac459e4cf11074b",
	"web/gdsf":                "689eda75c49202370e5c19eeb235f7b908492229a7696ba78ab25decd6c9b92e",
	"web/gdsf/keep-on-hit":    "7980b5398f2045664ddc1e5ff09b7991530a859faefbb9f3f4989228385f957b",
	"web/lru":                 "d6164da7fb77e725c6e4b1184357b9f960c1b76fec44ff882d0ea471339694f1",
	"web/lru/keep-on-hit":     "308d4e9d986686486e08f86dc3afd18094b981ac646de50cfeacf5de2bd10749",
	"web/rank/bridge":         "8b3e0e74848d1aa1f220a5a8bd962017aea8bd6ce0e5dbb76d569c3af73c4291",
	"cdn/rank":                "5afda2c1efae75965dc0292c0f23bf73d5e9c1beed09b8d4314eb6ff4f3b686b",
	"cdn/rank/keep-on-hit":    "73a54c5c4360afdd67b6fccfbfa297fb51855923b271c79cfa4b210efcf6a1a3",
	"cdn/learned":             "2923a6128cd761769a4a464eb57cc071e300d2326a35dcc473b350475567e4e5",
	"cdn/learned/keep-on-hit": "07845a539f92267ced955143186bc1690a06412aa62bfc0bb514efe59282f67c",
	"cdn/gdsf":                "6536fd986218c85184295b49a1c6e30ce25022cea3e2c62e1629782c87d3f96c",
	"cdn/gdsf/keep-on-hit":    "018917ea4c13c1fa4c226ff5821eb6e557566ad15fb546d2aa1a07f7288eeb4f",
	"cdn/lru":                 "1f9f04310c7957ccb691de7ea1b891a4f8b4e41f486aaba0bb3cf8cb800173dd",
	"cdn/lru/keep-on-hit":     "68afda9002272e9fc54483b48a1bb0c7164e3210b28d5e47358b3de76982e296",
	"cdn/rank/bridge":         "a70eff8d48ec8f69f22037c395dc750082dad99c4d4b3b989dbc97685ede7215",
}

func TestRefactorPins(t *testing.T) {
	for _, c := range pinGrid() {
		tr := c.trace(t)
		for _, workers := range []int{1, 4} {
			lfo, err := New(c.config(workers))
			if err != nil {
				t.Fatal(err)
			}
			got := replay(t, lfo, tr, nil)
			if c.bridge && lfo.EarlyRetrains() == 0 {
				t.Errorf("%s: the drift trigger never fired, so the cell pins nothing about it", c.name())
			}
			if want := refactorPins[c.name()]; got != want {
				t.Errorf("%s workers=%d: digest %s, want %s", c.name(), workers, got, want)
			}
			if lfo.res.Evictor.Name() != "learned" && lfo.res.Evictor.(interface{ Len() int }).Len() == 0 {
				t.Errorf("%s: the evictor tracks nothing at the end of the trace", c.name())
			}
		}
	}
}

// TestDeployLagDeterministic holds a lagged handoff to byte-identical
// runs: for the cells a handoff deploys something into (rank and learned
// eviction, and the bridge, whose early closes meet rounds in flight), a
// rerun at another worker count repeats the digest at every lag. The first
// model is the DeployLag 0 run's first model, bit for bit, and deploys
// right after request W+L.
func TestDeployLagDeterministic(t *testing.T) {
	for _, c := range pinGrid() {
		if c.noEvictOnHit || (c.eviction != "rank" && c.eviction != "learned") {
			continue
		}
		tr := c.trace(t)
		// run replays the cell and returns its digest, the first deployed
		// model's bytes and the request that deployed it.
		run := func(lag, workers int) (digest string, first []byte, at int) {
			cfg := c.config(workers)
			cfg.DeployLag = lag
			lfo, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			served := 0
			digest = replay(t, lfo, tr, func() {
				served++
				if at == 0 && lfo.Windows() > 0 {
					at = served
					var b bytes.Buffer
					if err := lfo.Model().Save(&b); err != nil {
						t.Fatal(err)
					}
					first = b.Bytes()
				}
			})
			return digest, first, at
		}
		_, first0, at0 := run(0, 1)
		if at0 != pinWindow {
			t.Fatalf("%s: DeployLag 0 deployed first after request %d, want %d", c.name(), at0, pinWindow)
		}
		for _, lag := range []int{1, pinWindow / 4, pinWindow - 1} {
			digest, first, at := run(lag, 1)
			if at != pinWindow+lag {
				t.Errorf("%s lag=%d: first deploy after request %d, want %d", c.name(), lag, at, pinWindow+lag)
			}
			if !bytes.Equal(first, first0) {
				t.Errorf("%s lag=%d: first model differs from the DeployLag 0 run's", c.name(), lag)
			}
			if par, _, _ := run(lag, 4); par != digest {
				t.Errorf("%s lag=%d: workers=4 digest %s, workers=1 %s", c.name(), lag, par, digest)
			}
		}
	}
}
