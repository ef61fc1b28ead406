// Command lfobenchmark is the repository's benchmark: one foreground
// process that drives the request path (core.LFO.Request with a deployed
// model), the window handoff (OPT label → train → rescore → deploy) and the
// wire path (encode → fleet.Router → server → kernel → reply) through
// public functions, checks the outputs, and prints every metric by name
// and unit. See README.md for the protocol and BENCHMARK.json for the
// contract; run.sh builds and starts it.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
	scale    float64
	passes   int // set by the smoke test only; 0 = as many as fit into seconds
	deadline time.Duration
}

// passCount is how many untraced passes a run makes of a workload whose
// pass costs passS seconds on the reference box: as many as fit into
// --seconds, at least two. In a traced run the traced pass takes the place
// of one.
func (o options) passCount(passS float64) int {
	if o.passes > 0 {
		return o.passes
	}
	k := int(float64(o.seconds)/passS + 0.5)
	if k < 2 {
		k = 2
	}
	if o.trace {
		k--
	}
	return k
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"admit_rank", "evict_learned", "default_flow", "wire_fleet"}

// runWorkload dispatches to the workload and then asserts that everything
// it started is gone: goroutines back to the starting count.
func runWorkload(o options) (*result, error) {
	before := runtime.NumGoroutine()
	var res *result
	var err error
	switch o.workload {
	case "admit_rank", "evict_learned", "default_flow":
		res, err = runCache(o.workload, o)
	case "wire_fleet":
		res, err = runWire(o)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	// Connection handlers exit asynchronously after Close returns.
	for wait := time.Millisecond; runtime.NumGoroutine() > before && wait < 2*time.Second; wait *= 2 {
		time.Sleep(wait)
	}
	if n := runtime.NumGoroutine(); n > before {
		res.fail("%d goroutines left running (started with %d)", n, before)
	}
	return res, nil
}

func main() {
	var o options
	traceFlag := 0
	flag.StringVar(&o.workload, "workload", "", "one of admit_rank, evict_learned, default_flow, wire_fleet")
	flag.Int64Var(&o.seed, "seed", 7, "workload seed; the program under test sees only generated requests")
	flag.IntVar(&o.seconds, "seconds", 20, "measured time: as many passes as fit into it on the reference box")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds the traced pass and the per-layer replays and reports per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default trace-<workload>.json beside the binary)")
	flag.Float64Var(&o.scale, "scale", 1, "shrinks window and row counts; the smoke test runs at 1/4")
	flag.DurationVar(&o.deadline, "deadline", 120*time.Second, "hard limit; the process exits non-zero when it expires")
	flag.Parse()
	o.trace = traceFlag != 0
	if o.traceOut == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfobenchmark:", err)
			os.Exit(2)
		}
		o.traceOut = filepath.Join(filepath.Dir(exe), "trace-"+o.workload+".json")
	}
	if o.seconds < 1 || o.scale <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "lfobenchmark: --seconds and -scale must be positive and there are no positional arguments")
		os.Exit(2)
	}

	// The benchmark fixes its own parallelism and ignores the environment's:
	// one core runs all of it, the shards of the wire workload too. On a box
	// whose neighbours take turns on every core, a run that needs one quiet
	// core finds it far more often than one that needs two at once.
	runtime.GOMAXPROCS(1)

	// Everything the benchmark starts lives in this process, so leaving it
	// is the clean-up: listeners, connections and goroutines end with it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "lfobenchmark: %v, exiting\n", s)
			os.Exit(130)
		case <-time.After(o.deadline):
			fmt.Fprintf(os.Stderr, "lfobenchmark: deadline %v expired\n", o.deadline)
			os.Exit(3)
		}
	}()

	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfobenchmark:", err)
		os.Exit(1)
	}
	if o.trace {
		if err := writeSpans(o.traceOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "lfobenchmark:", err)
			os.Exit(1)
		}
	}
	out, err := res.render(o.trace)
	if err == nil {
		_, err = os.Stdout.Write(out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfobenchmark:", err)
		os.Exit(1)
	}
}
