// Command lfosim replays a request trace against a caching policy — any
// of the baseline heuristics or the LFO learning cache — and reports the
// byte and object hit ratios.
//
// Usage:
//
//	lfosim -policy lfo -size 256m -trace trace.txt
//	lfosim -policy s4lru -size 64m -gen cdn -n 200000
//	lfosim -policy all -size 64m -gen cdn -n 100000 -warmup 20000
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"lfo/internal/cliutil"
	"lfo/internal/core"
	"lfo/internal/evict"
	"lfo/internal/obs"
	"lfo/internal/policy"
	"lfo/internal/policy/ogd"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file (text format); mutually exclusive with -gen")
		genMix    = flag.String("gen", "", "generate a synthetic trace instead: cdn or web")
		n         = flag.Int("n", 100000, "generated trace length (with -gen)")
		seed      = flag.Int64("seed", 1, "seed for generation and randomized policies")
		name      = flag.String("policy", "lru", "policy name, 'lfo', or 'all' (see -list)")
		list      = flag.Bool("list", false, "list available policies and exit")
		sizeStr   = flag.String("size", "64m", "cache size (e.g. 64m, 1g)")
		objective = flag.String("objective", "bhr", "cost objective: bhr, ohr or cost")
		warmup    = flag.Int("warmup", 0, "requests excluded from metrics")
		window    = flag.Int("window", 50000, "training window for lfo and evict policies")
		evictMode = flag.String("evict", "", "eviction mechanism for -policy lfo (default rank) and -policy evict (default learned): "+strings.Join(evict.Kinds(), "|"))
		admit     = flag.String("admit", "admit-all", "admission side for -policy evict: admit-all or second-hit")
		workers   = flag.Int("workers", 0, "goroutines for LFO training and scoring (OPT labeling is one sequential pass either way): 0=all cores, 1=sequential")
		ogdEta    = flag.Float64("ogd", 0, "OGD gradient step scale for -policy ogd and the lfo hybrid shadow learner (0 = default)")
		hybridLR  = flag.Float64("hybrid-lr", 0, "per-size-class bias learning rate for -policy lfo: > 0 enables the online-learning bridge")
		driftThr  = flag.Float64("drift-threshold", 0, "PSI threshold for -policy lfo: > 0 enables the drift detector and early-retrain trigger")
		series    = flag.Int("series", 0, "also print per-window metrics every N requests")
		showObs   = flag.Bool("obs", false, "print the observability snapshot (internal/obs counters) after the run")
	)
	flag.Parse()

	if *list {
		fmt.Println("baseline policies:", policy.Names())
		fmt.Println("learning cache:    lfo (eviction via -evict)")
		fmt.Println("combined cache:    evict (-admit admit-all|second-hit, eviction via -evict)")
		fmt.Println("eviction kinds:   ", evict.Kinds())
		return
	}

	size, err := cliutil.ParseBytes(*sizeStr)
	if err != nil || size <= 0 {
		fatalf("bad -size %q: %v", *sizeStr, err)
	}
	obj, err := trace.ParseObjective(*objective)
	if err != nil {
		fatalf("%v", err)
	}

	tr, err := cliutil.LoadTrace(*tracePath, *genMix, *n, *seed)
	if err != nil {
		fatalf("load trace: %v", err)
	}
	tr = tr.WithCosts(obj)

	var reg *obs.Registry
	if *showObs {
		reg = obs.NewRegistry()
	}
	opts := sim.Options{Warmup: *warmup, WindowSize: *series, Obs: reg}
	names := []string{*name}
	if *name == "all" {
		names = append(policy.Names(), "lfo")
	}

	var results []*sim.Metrics
	for _, pn := range names {
		p, err := makePolicy(pn, size, *seed, *window, *workers, *evictMode, *admit, bridgeFlags{eta: *ogdEta, lr: *hybridLR, threshold: *driftThr}, reg)
		if err != nil {
			fatalf("%v", err)
		}
		m := sim.Run(tr, p, opts)
		results = append(results, m)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].BHR() > results[j].BHR() })

	fmt.Printf("trace: %d requests, cache %s, objective %s, warmup %d\n",
		tr.Len(), cliutil.FormatBytes(size), obj, *warmup)
	fmt.Printf("%-12s %8s %8s %12s\n", "policy", "BHR", "OHR", "miss cost")
	for _, m := range results {
		fmt.Printf("%-12s %8.4f %8.4f %12.0f\n", m.Policy, m.BHR(), m.OHR(), m.MissCost)
		for _, w := range m.Windows {
			fmt.Printf("  window@%-8d BHR=%.4f OHR=%.4f misscost=%.0f\n", w.Start, w.BHR(), w.OHR(), w.MissCost)
		}
	}
	if reg != nil {
		fmt.Println("observability snapshot:")
		if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
			fatalf("write snapshot: %v", err)
		}
	}
}

// bridgeFlags carries the online-learning-bridge knobs: the OGD step
// scale, the hybrid bias learning rate, and the drift trigger threshold.
type bridgeFlags struct {
	eta, lr, threshold float64
}

func makePolicy(name string, size, seed int64, window, workers int, evictMode, admit string, bridge bridgeFlags, reg *obs.Registry) (sim.Policy, error) {
	switch name {
	case "lfo":
		return core.New(core.Config{
			CacheSize:      size,
			WindowSize:     window,
			OPT:            core.HarnessOPT,
			Workers:        workers,
			Eviction:       evictMode,
			Seed:           seed,
			OGDEta:         bridge.eta,
			HybridLR:       bridge.lr,
			DriftThreshold: bridge.threshold,
			Obs:            reg,
		})
	case "ogd":
		// Registered in the baseline table too, but the -ogd step-scale
		// override only reaches it through this explicit construction.
		return ogd.New(ogd.Config{CacheSize: size, Eta: bridge.eta})
	case "evict":
		cfg := evict.Config{
			CacheSize:  size,
			Eviction:   evictMode,
			Seed:       seed,
			WindowSize: window,
			Workers:    workers,
			Obs:        reg,
		}
		switch admit {
		case "", "admit-all":
		case "second-hit":
			cfg.Admitter = policy.NewSecondHitCensor(0)
		default:
			return nil, fmt.Errorf("unknown -admit %q (want admit-all or second-hit)", admit)
		}
		return evict.New(cfg)
	}
	return policy.New(name, size, seed)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "lfosim: "+format+"\n", args...)
	os.Exit(1)
}
