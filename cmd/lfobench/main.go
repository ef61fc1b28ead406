// Command lfobench regenerates the paper's evaluation figures (§3) and
// the ablation studies. Each figure prints as a text table; EXPERIMENTS.md
// records the paper-vs-measured comparison. The figures are the rows of
// experiments.Figures, and every table is a pure function of the flags: a
// rerun prints the same bytes (no figure reads a clock; for seconds see
// bench/).
//
// Usage:
//
//	lfobench -fig all                 # every figure at default scale
//	lfobench -fig 6 -scale quick      # Fig 6 at CI scale
//	lfobench -fig 5c -seeds 100       # full seed sweep
//	lfobench -fig ablate              # all ablation studies
//	lfobench -fig 5a,ablate-iters     # any mix of the names -h lists
package main

import (
	"flag"
	"fmt"
	"os"

	"lfo/internal/cliutil"
	"lfo/internal/experiments"
	"lfo/internal/obs"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "comma-separated figures: "+experiments.Names(experiments.Figures(0, 0)))
		scale   = flag.String("scale", "default", "harness scale: quick or default")
		seeds   = flag.Int("seeds", 100, "seed count for Fig 5c")
		repeats = flag.Int("repeats", 3, "subset repeats for Fig 5b")
		seed    = flag.Int64("seed", 42, "base seed")
		sizeStr = flag.String("size", "", "override cache size (e.g. 64m)")
		reqs    = flag.Int("n", 0, "override trace length")
		workers = flag.Int("workers", 0, "goroutines for LFO training and scoring (OPT labeling is one sequential pass either way): 0=all cores, 1=sequential")
		showObs = flag.Bool("obs", false, "print the observability snapshot (internal/obs counters) after the figures")
	)
	flag.Parse()

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.Quick()
	case "default":
		cfg = experiments.Default()
	default:
		fatalf("unknown -scale %q", *scale)
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	var reg *obs.Registry
	if *showObs {
		reg = obs.NewRegistry()
		cfg.Obs = reg
	}
	if *sizeStr != "" {
		size, err := cliutil.ParseBytes(*sizeStr)
		if err != nil || size <= 0 {
			fatalf("bad -size %q: %v", *sizeStr, err)
		}
		cfg.CacheSize = size
	}
	if *reqs > 0 {
		cfg.Requests = *reqs
	}

	figs, err := experiments.Select(experiments.Figures(*seeds, *repeats), *fig)
	if err != nil {
		fatalf("-fig: %v", err)
	}
	for _, f := range figs {
		t, err := f.Run(cfg)
		if err != nil {
			fatalf("%s: %v", f.Name, err)
		}
		fmt.Print(t)
		fmt.Println()
	}
	if reg != nil {
		fmt.Println("observability snapshot:")
		if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
			fatalf("write snapshot: %v", err)
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "lfobench: "+format+"\n", args...)
	os.Exit(1)
}
