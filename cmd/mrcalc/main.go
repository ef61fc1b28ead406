// Command mrcalc computes miss-ratio curves: the exact LRU hit ratio as a
// function of cache size (one O(n log n) pass), optionally alongside the
// offline-optimal bound — the provisioning view of a trace.
//
// Usage:
//
//	mrcalc -trace trace.txt -min 16m -max 4g -points 12
//	mrcalc -gen cdn -n 100000 -opt
package main

import (
	"flag"
	"fmt"
	"os"

	"lfo/internal/cliutil"
	"lfo/internal/mrc"
	"lfo/internal/opt"
	"lfo/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file (text format)")
		genMix    = flag.String("gen", "", "generate a synthetic trace: cdn or web")
		n         = flag.Int("n", 100000, "generated trace length (with -gen)")
		seed      = flag.Int64("seed", 1, "generator seed")
		minStr    = flag.String("min", "4m", "smallest cache size")
		maxStr    = flag.String("max", "1g", "largest cache size")
		points    = flag.Int("points", 10, "number of curve points")
		withOPT   = flag.Bool("opt", false, "also sample the offline-optimal bound (slower)")
		workers   = flag.Int("workers", 0, "goroutines for the OPT curve points: 0=all cores, 1=sequential")
	)
	flag.Parse()

	minSize, err := cliutil.ParseBytes(*minStr)
	if err != nil || minSize <= 0 {
		fatalf("bad -min %q: %v", *minStr, err)
	}
	maxSize, err := cliutil.ParseBytes(*maxStr)
	if err != nil || maxSize < minSize {
		fatalf("bad -max %q: %v", *maxStr, err)
	}

	tr, err := cliutil.LoadTrace(*tracePath, *genMix, *n, *seed)
	if err != nil {
		fatalf("load trace: %v", err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)

	curve := mrc.ComputeLRU(tr)
	sizes := mrc.LogSizes(minSize, maxSize, *points)

	var optPts []mrc.Point
	if *withOPT {
		optPts, err = mrc.ComputeOPT(tr, sizes, opt.Config{Workers: *workers})
		if err != nil {
			fatalf("OPT curve: %v", err)
		}
	}

	fmt.Printf("trace: %d requests; LRU saturates at %s\n\n",
		tr.Len(), cliutil.FormatBytes(curve.MaxUseful()))
	if *withOPT {
		fmt.Printf("%-10s %10s %10s %10s %10s\n", "cache", "LRU BHR", "LRU OHR", "OPT BHR", "OPT OHR")
	} else {
		fmt.Printf("%-10s %10s %10s\n", "cache", "LRU BHR", "LRU OHR")
	}
	for i, s := range sizes {
		if *withOPT {
			fmt.Printf("%-10s %10.4f %10.4f %10.4f %10.4f\n",
				cliutil.FormatBytes(s), curve.BHR(s), curve.OHR(s), optPts[i].BHR, optPts[i].OHR)
		} else {
			fmt.Printf("%-10s %10.4f %10.4f\n", cliutil.FormatBytes(s), curve.BHR(s), curve.OHR(s))
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mrcalc: "+format+"\n", args...)
	os.Exit(1)
}
