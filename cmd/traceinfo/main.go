// Command traceinfo characterizes a request trace: popularity skew, size
// distribution, reuse behaviour, and working-set footprint — the workload
// table CDN caching papers report.
//
// Usage:
//
//	traceinfo -trace trace.txt
//	traceinfo -gen cdn -n 200000
package main

import (
	"flag"
	"fmt"
	"os"

	"lfo/internal/analysis"
	"lfo/internal/cliutil"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file (text format)")
		genMix    = flag.String("gen", "", "generate a synthetic trace: cdn or web")
		n         = flag.Int("n", 100000, "generated trace length (with -gen)")
		seed      = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	tr, err := cliutil.LoadTrace(*tracePath, *genMix, *n, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceinfo: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(analysis.Analyze(tr))
}
