// Command predserve runs LFO's TCP prediction service: it trains (or
// loads) an admission model and serves likelihood predictions to CDN
// frontends over the length-prefixed binary protocol in internal/server.
//
// Usage:
//
//	predserve -addr :7070 -model model.gob
//	predserve -addr :7070 -train-gen cdn -n 50000 -size 64m
//	predserve -addr :7070 -train-gen cdn -debug.addr 127.0.0.1:7071
//
// With -debug.addr set, a second HTTP listener serves /metrics (flat
// "name value" text), /debug/vars (expvar), and /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lfo/internal/cliutil"
	"lfo/internal/core"
	"lfo/internal/features"
	"lfo/internal/gbdt"
	"lfo/internal/obs"
	"lfo/internal/server"
	"lfo/internal/trace"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "listen address")
		debugAddr  = flag.String("debug.addr", "", "optional HTTP listener for /metrics, /debug/vars and /debug/pprof")
		modelPath  = flag.String("model", "", "load a model saved with Model.Save")
		trainFile  = flag.String("train-trace", "", "train a model from this trace file")
		trainGen   = flag.String("train-gen", "", "train a model from a generated trace: cdn or web")
		n          = flag.Int("n", 50000, "generated training trace length")
		seed       = flag.Int64("seed", 1, "generator seed")
		sizeStr    = flag.String("size", "64m", "cache size used for OPT labels")
		workers    = flag.Int("workers", 0, "prediction parallelism per request batch (0 = all cores, 1 = serial)")
		shardID    = flag.Int("shard-id", -1, "fleet shard index: tags log lines with shard=<id> and metric names with shard<id>_ (negative = standalone)")
		maxTracked = flag.Int("max-tracked", 0, "per-connection admit tracker bound in objects (0 = default 1<<22, negative = unbounded)")
		saveModel  = flag.String("save-model", "", "after training, save the model here")

		readTimeout  = flag.Duration("read-timeout", 0, "per-frame read deadline (0 = default 2m, negative = none)")
		writeTimeout = flag.Duration("write-timeout", 0, "response write deadline (0 = default 30s, negative = none)")
		drainTimeout = flag.Duration("drain-timeout", 0, "graceful shutdown drain bound (0 = default 5s, negative = wait forever)")
		maxFrame     = flag.Int("max-frame", 0, "request frame payload bound in bytes (0 = default 64MiB, negative = unbounded)")
		maxConns     = flag.Int("max-conns", 0, "concurrent connection bound (0 = default 1024, negative = unbounded)")
	)
	flag.Parse()

	model, err := obtainModel(*modelPath, *trainFile, *trainGen, *n, *seed, *sizeStr)
	if err != nil {
		fatalf("%v", err)
	}
	if *saveModel != "" {
		f, err := os.Create(*saveModel)
		if err != nil {
			fatalf("create %s: %v", *saveModel, err)
		}
		if err := model.Save(f); err != nil {
			fatalf("save model: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("close model: %v", err)
		}
		fmt.Printf("model saved to %s\n", *saveModel)
	}

	cfg := serveConfig{
		workers:      *workers,
		shardID:      *shardID,
		maxTracked:   *maxTracked,
		readTimeout:  *readTimeout,
		writeTimeout: *writeTimeout,
		drainTimeout: *drainTimeout,
		maxFrame:     *maxFrame,
		maxConns:     *maxConns,
		degradeLog:   func(line string) { fmt.Fprintln(os.Stderr, line) },
	}
	srv, dbg, err := buildServer(model, cfg, *debugAddr)
	if err != nil {
		fatalf("%v", err)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatalf("%v", err)
	}
	if *shardID >= 0 {
		fmt.Printf("predserve: shard=%d %d trees, listening on %s\n", *shardID, model.NumTrees(), bound)
	} else {
		fmt.Printf("predserve: %d trees, listening on %s\n", model.NumTrees(), bound)
	}
	if dbg != nil {
		fmt.Printf("predserve: debug endpoints on http://%s/metrics\n", dbg.addr)
		defer func() {
			_ = dbg.stop() // shutdown path; nothing actionable on error
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("predserve: shutting down")
	if err := srv.Close(); err != nil {
		fatalf("close: %v", err)
	}
}

// debugListener is a running -debug.addr HTTP listener.
type debugListener struct {
	addr net.Addr
	stop func() error
}

// serveConfig carries the serving-path flags into buildServer. Zero
// values defer to the server package's safe defaults (negative disables
// a knob, matching the flag help text).
type serveConfig struct {
	workers int
	// shardID tags this process as one member of a fleet (see
	// internal/fleet): log lines gain shard=<id> and metric names the
	// shard<id>_ prefix, so one aggregation pipeline can tell the
	// shards apart. Negative means standalone (no tagging).
	shardID      int
	maxTracked   int
	readTimeout  time.Duration
	writeTimeout time.Duration
	drainTimeout time.Duration
	maxFrame     int
	maxConns     int
	degradeLog   func(line string) // sink for one structured line per degradation event
}

// degradeLine renders a degradation event as one structured key=value
// log line, stable enough to grep or ship to a log pipeline. A
// non-negative shardID adds a shard=<id> key.
func degradeLine(ev server.DegradeEvent, shardID int) string {
	remote := ev.Remote
	if remote == "" {
		remote = "-"
	}
	shard := ""
	if shardID >= 0 {
		shard = fmt.Sprintf(" shard=%d", shardID)
	}
	if ev.Err != nil {
		return fmt.Sprintf("predserve: degrade%s kind=%s remote=%s err=%q", shard, ev.Kind, remote, ev.Err)
	}
	return fmt.Sprintf("predserve: degrade%s kind=%s remote=%s", shard, ev.Kind, remote)
}

// buildServer assembles the prediction server and, when debugAddr is
// non-empty, an obs registry plus its debug HTTP listener. Split from
// main so tests can exercise the exact wiring the flags produce.
func buildServer(model *gbdt.Model, cfg serveConfig, debugAddr string) (*server.Server, *debugListener, error) {
	srv := server.New(model, cfg.workers)
	srv.MaxTrackedObjects = cfg.maxTracked
	srv.ReadTimeout = cfg.readTimeout
	srv.WriteTimeout = cfg.writeTimeout
	srv.DrainTimeout = cfg.drainTimeout
	srv.MaxFramePayload = cfg.maxFrame
	srv.MaxConns = cfg.maxConns
	if cfg.degradeLog != nil {
		sink := cfg.degradeLog
		shardID := cfg.shardID
		srv.OnDegrade = func(ev server.DegradeEvent) { sink(degradeLine(ev, shardID)) }
	}
	if debugAddr == "" {
		return srv, nil, nil
	}
	reg := obs.NewRegistry()
	srv.Obs = reg
	if cfg.shardID >= 0 {
		// The server records under shard<id>_-prefixed names; the debug
		// listener snapshots the shared root, so /metrics shows them.
		srv.Obs = reg.Prefixed(fmt.Sprintf("shard%d_", cfg.shardID))
	}
	addr, stop, err := obs.ServeDebug(debugAddr, reg)
	if err != nil {
		return nil, nil, fmt.Errorf("debug listener: %w", err)
	}
	return srv, &debugListener{addr: addr, stop: stop}, nil
}

func obtainModel(modelPath, trainFile, trainGen string, n int, seed int64, sizeStr string) (*gbdt.Model, error) {
	if modelPath != "" {
		f, err := os.Open(modelPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		m, err := gbdt.Load(f)
		if err == nil && m.Dim != features.Dim {
			// server.New would panic on it; refuse it with a reason instead.
			return nil, fmt.Errorf("%s: model scores %d features, want %d", modelPath, m.Dim, features.Dim)
		}
		return m, err
	}
	size, err := cliutil.ParseBytes(sizeStr)
	if err != nil || size <= 0 {
		return nil, fmt.Errorf("bad -size %q: %v", sizeStr, err)
	}
	if trainFile == "" && trainGen == "" {
		return nil, fmt.Errorf("need -model, -train-trace or -train-gen")
	}
	tr, err := cliutil.LoadTrace(trainFile, trainGen, n, seed)
	if err != nil {
		return nil, err
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	model, _, err := core.TrainOnWindow(tr, core.Config{CacheSize: size, OPT: core.HarnessOPT})
	return model, err
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "predserve: "+format+"\n", args...)
	os.Exit(1)
}
