// Command optcalc computes the offline-optimal caching decisions (OPT)
// for a trace under the FOO min-cost-flow model (§2.1 of the paper) and
// reports OPT's hit ratios. Optionally it writes the per-request
// admission decisions for inspection or external training pipelines.
//
// Usage:
//
//	optcalc -trace trace.txt -size 256m
//	optcalc -gen cdn -n 50000 -size 64m -algo greedy -rank 0.3 -decisions out.txt
//
// -algo flow (the default) solves the FOO LP exactly by one
// furthest-next-request sweep of the whole trace where every interval
// costs the same per byte (-objective bhr), and labels it as -algo greedy
// does otherwise (-objective ohr or cost); -algo greedy labels the whole
// trace in one feasible rank-order pass. The "labeled by" line names the
// solver that ran: sweep or greedy.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"lfo/internal/cliutil"
	"lfo/internal/opt"
	"lfo/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file (text format)")
		genMix    = flag.String("gen", "", "generate a synthetic trace: cdn or web")
		n         = flag.Int("n", 50000, "generated trace length (with -gen)")
		seed      = flag.Int64("seed", 1, "generator seed")
		sizeStr   = flag.String("size", "64m", "cache size")
		objective = flag.String("objective", "bhr", "cost objective: bhr, ohr or cost")
		algo      = flag.String("algo", "flow", "solver: flow or greedy")
		rank      = flag.Float64("rank", 1.0, "rank fraction of intervals to solve (0,1]")
		decisions = flag.String("decisions", "", "write per-request decisions (0/1) to this file")
	)
	flag.Parse()

	size, err := cliutil.ParseBytes(*sizeStr)
	if err != nil || size <= 0 {
		fatalf("bad -size %q: %v", *sizeStr, err)
	}
	obj, err := trace.ParseObjective(*objective)
	if err != nil {
		fatalf("%v", err)
	}
	var algorithm opt.Algorithm
	switch *algo {
	case "flow":
		algorithm = opt.AlgoFlow
	case "greedy":
		algorithm = opt.AlgoGreedy
	default:
		fatalf("unknown -algo %q", *algo)
	}

	tr, err := cliutil.LoadTrace(*tracePath, *genMix, *n, *seed)
	if err != nil {
		fatalf("load trace: %v", err)
	}
	tr = tr.WithCosts(obj)

	start := time.Now()
	res, err := opt.Compute(tr, opt.Config{
		CacheSize:    size,
		Algorithm:    algorithm,
		RankFraction: *rank,
	})
	if err != nil {
		fatalf("compute OPT: %v", err)
	}
	elapsed := time.Since(start)

	fmt.Printf("requests:   %d\n", tr.Len())
	fmt.Printf("intervals:  %d (solved %d, dropped %d)\n", res.Intervals, res.Solved, res.DroppedIntervals())
	fmt.Printf("cache:      %s, objective %s, algorithm %s, rank %.2f\n",
		cliutil.FormatBytes(size), obj, algorithm, *rank)
	fmt.Printf("labeled by: %s (%d exact ivs, %d greedy ivs)\n",
		res.AlgoLabel(), res.FlowIntervals, res.GreedyIntervals)
	fmt.Printf("OPT BHR:    %.4f\n", res.BHR())
	fmt.Printf("OPT OHR:    %.4f\n", res.OHR())
	fmt.Printf("miss cost:  %.0f\n", res.MissCost)
	fmt.Printf("solve time: %s\n", elapsed.Round(time.Millisecond))

	if *decisions != "" {
		f, err := os.Create(*decisions)
		if err != nil {
			fatalf("create %s: %v", *decisions, err)
		}
		w := bufio.NewWriter(f)
		for i, admit := range res.Admit {
			v := 0
			if admit {
				v = 1
			}
			//lfolint:ignore unchecked-error bufio errors are sticky and surface at the checked Flush below
			fmt.Fprintf(w, "%d %d %d\n", i, uint64(tr.Requests[i].ID), v)
		}
		if err := w.Flush(); err != nil {
			fatalf("write decisions: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("close decisions: %v", err)
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "optcalc: "+format+"\n", args...)
	os.Exit(1)
}
