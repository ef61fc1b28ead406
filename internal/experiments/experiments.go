// Package experiments reproduces every figure of the paper's evaluation
// (§3): one function per figure, each returning a structured result that
// prints as the same rows/series the paper reports, and one ordered
// registry (Figures) that pairs each with its table. cmd/lfobench is flag
// parsing plus a loop over that registry.
//
// Every table is a pure function of Config: no figure reads a clock, so a
// rerun prints the same bytes (testdata/lfobench_quick.golden, diffed by
// scripts/check.sh) and a cost column counts machine-independent work —
// intervals solved, trees, leaves. Seconds are cited from the
// repository benchmark (bench/: opt.compute_s, gbdt.train_s,
// gbdt.predict_ns), never printed here.
//
// Scale note: the paper evaluates on a 500M-request production trace with
// a 256 GB cache on a 44-core server. The harness defaults are scaled to
// laptop budgets (hundreds of thousands of requests, MB–GB caches); the
// Config lets callers scale back up. EXPERIMENTS.md records paper-vs-
// measured values and the shape targets that must hold at any scale.
package experiments

import (
	"fmt"
	"strings"

	"lfo/internal/core"
	"lfo/internal/gbdt"
	"lfo/internal/gen"
	"lfo/internal/obs"
	"lfo/internal/policy"
	"lfo/internal/sim"
	"lfo/internal/trace"
)

// Config scales the experiment harness.
type Config struct {
	// Requests is the trace length.
	Requests int
	// CacheSize is the cache capacity in bytes.
	CacheSize int64
	// Window is LFO's training-window length.
	Window int
	// Seed drives trace generation and randomized policies.
	Seed int64
	// Objective assigns retrieval costs (BHR by default).
	Objective trace.Objective
	// Workers caps the goroutines LFO's training/scoring pipeline may
	// use; 0 means all cores, 1 is sequential.
	// Results are byte-identical for any value.
	Workers int
	// Obs, when set, accumulates runtime metrics across the harness's LFO
	// caches and simulation runs (see internal/obs); results are
	// unaffected.
	Obs *obs.Registry
}

// Quick returns a configuration sized for unit tests and CI (seconds).
func Quick() Config {
	return Config{
		Requests:  40000,
		CacheSize: 16 << 20,
		Window:    10000,
		Seed:      42,
		Objective: trace.ObjectiveBHR,
	}
}

// Default returns the standard harness configuration (a couple of minutes
// for the full figure set).
func Default() Config {
	return Config{
		Requests:  200000,
		CacheSize: 64 << 20,
		Window:    25000,
		Seed:      42,
		Objective: trace.ObjectiveBHR,
	}
}

// scenarios is the one table of generated workloads the figures run on,
// in the order the eviction and drift grids emit them: a stationary web
// workload, the full CDN mix with its built-in flash crowd and
// load-balancer shift, and a web workload whose hot set is remapped
// wholesale mid-trace (the hardest case for a stale eviction ranker). The
// other figures look one up by name; the robustness table contaminates
// "stable" with scans.
var scenarios = []struct {
	name string
	mix  func(requests int, seed int64) gen.Config
}{
	{"stable", gen.WebMix},
	{"cdn-drift", gen.CDNMix},
	{"reshuffle", func(requests int, seed int64) gen.Config {
		c := gen.WebMix(requests, seed)
		c.Drift = []gen.DriftEvent{{At: 0.5, Class: 0, NewWeight: 1, Reshuffle: true}}
		return c
	}},
}

// workload generates the named scenario at this scale, costed by the
// objective.
func (c Config) workload(name string) (*trace.Trace, error) {
	for _, sc := range scenarios {
		if sc.name != name {
			continue
		}
		tr, err := gen.Generate(sc.mix(c.Requests, c.Seed))
		if err != nil {
			return nil, err
		}
		return tr.WithCosts(c.Objective), nil
	}
	return nil, fmt.Errorf("experiments: unknown scenario %q", name)
}

// lfoConfig returns the LFO configuration for this harness scale. GBDT
// params are materialized here (not left to core's lazy defaulting) so
// ablations can tweak individual fields.
func (c Config) lfoConfig() core.Config {
	return core.Config{
		CacheSize:  c.CacheSize,
		WindowSize: c.Window,
		OPT:        core.HarnessOPT,
		GBDT:       gbdt.DefaultParams(),
		Workers:    c.Workers,
		Obs:        c.Obs,
	}
}

// windowPair is the fixture of every next-window experiment: a model
// fitted to the first window of the CDN trace, that window's extraction,
// and the extraction of the window after it to judge the model on.
type windowPair struct {
	model       *gbdt.Model
	train, eval *core.Extraction
}

// windowPair trains on [0, w) and extracts [w, 2w) under lcfg, with
// w = c.Window clamped to half the trace.
func (c Config) windowPair(lcfg core.Config) (*windowPair, error) {
	tr, err := c.workload("cdn-drift")
	if err != nil {
		return nil, err
	}
	w := c.Window
	if 2*w > tr.Len() {
		w = tr.Len() / 2
	}
	model, train, err := core.TrainOnWindow(tr.Slice(0, w), lcfg)
	if err != nil {
		return nil, err
	}
	eval, err := core.Extract(tr.Slice(w, 2*w), lcfg)
	if err != nil {
		return nil, err
	}
	return &windowPair{model: model, train: train, eval: eval}, nil
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// PolicyResult is one policy's hit ratios in a comparison table.
type PolicyResult struct {
	Name string
	BHR  float64
	OHR  float64
}

// entry is one cache of a figure's line-up: the name its row reports (""
// for the cache's own Name) and how to build a fresh one.
type entry struct {
	name  string
	build func() (sim.Policy, error)
}

// row is one replayed entry: its name, its run's metrics, and the cache
// itself for the tables that read more than the run (early retrains, tier
// hits).
type row struct {
	name string
	m    *sim.Metrics
	p    sim.Policy
}

// replay is the one runner of every cache-replaying figure: it builds
// each entry's cache in line-up order, replays tr through it with sim.Run
// under opts, recording into c.Obs, and returns one row per entry.
func (c Config) replay(tr *trace.Trace, opts sim.Options, line []entry) ([]row, error) {
	opts.Obs = c.Obs
	rows := make([]row, len(line))
	for i, e := range line {
		p, err := e.build()
		if err != nil {
			return nil, err
		}
		rows[i] = row{name: e.name, m: sim.Run(tr, p, opts), p: p}
		if e.name == "" {
			rows[i].name = rows[i].m.Policy
		}
	}
	return rows, nil
}

// baselines is the line-up of the named policy.New baselines at this
// scale, each row under the policy's own name.
func (c Config) baselines(names ...string) []entry {
	line := make([]entry, len(names))
	for i, name := range names {
		line[i].build = func() (sim.Policy, error) { return policy.New(name, c.CacheSize, c.Seed) }
	}
	return line
}

// lfoEntry is a line-up entry for an LFO cache under lcfg.
func lfoEntry(name string, lcfg core.Config) entry {
	return entry{name, func() (sim.Policy, error) { return core.New(lcfg) }}
}

// results reads each row's hit ratios under its name.
func results(rows []row) []PolicyResult {
	out := make([]PolicyResult, len(rows))
	for i, r := range rows {
		out[i] = PolicyResult{Name: r.name, BHR: r.m.BHR(), OHR: r.m.OHR()}
	}
	return out
}

// Fig1 reproduces Figure 1: the object hit ratio of RND, LRU, RLC and
// GDSF, showing that model-free RL caching (RLC) is not competitive with
// a simple heuristic (GDSF).
func Fig1(cfg Config) ([]PolicyResult, error) {
	tr, err := cfg.workload("stable")
	if err != nil {
		return nil, err
	}
	// Figure 1 reports the object hit ratio; GDSF's classic
	// OHR-optimizing configuration uses unit costs.
	tr = tr.WithCosts(trace.ObjectiveOHR)
	rows, err := cfg.replay(tr, sim.Options{Warmup: cfg.Requests / 5}, cfg.baselines("rnd", "lru", "rlc", "gdsf"))
	if err != nil {
		return nil, err
	}
	return results(rows), nil
}

// Fig1Table formats Fig1 results.
func Fig1Table(rs []PolicyResult) *Table {
	t := &Table{
		Title:  "Fig 1: RL-based caching vs heuristics (OHR)",
		Header: []string{"policy", "OHR"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{r.Name, fmt.Sprintf("%.4f", r.OHR)})
	}
	return t
}

// AccuracyResult is the §3 headline accuracy measurement.
type AccuracyResult struct {
	// Accuracy is the fraction of eval-window requests where LFO's
	// prediction agrees with OPT (paper: >93%).
	Accuracy float64
	// Eval carries the error decomposition.
	Eval core.EvalResult
	// TrainWindow and EvalWindow are the window sizes used.
	TrainWindow, EvalWindow int
}

// Accuracy reproduces the §3 headline: train LFO on one window and
// measure agreement with OPT on the next.
func Accuracy(cfg Config) (*AccuracyResult, error) {
	wp, err := cfg.windowPair(cfg.lfoConfig())
	if err != nil {
		return nil, err
	}
	ev := core.Evaluate(wp.model, wp.eval, 0.5)
	return &AccuracyResult{
		Accuracy:    1 - ev.Error,
		Eval:        ev,
		TrainWindow: wp.train.Requests,
		EvalWindow:  wp.eval.Requests,
	}, nil
}

// AccuracyTable formats the accuracy headline.
func AccuracyTable(r *AccuracyResult) *Table {
	return &Table{
		Title:  "§3 headline: prediction accuracy (paper: >93%)",
		Header: []string{"accuracy%", "FP%", "FN%", "train window", "eval window"},
		Rows: [][]string{{
			fmt.Sprintf("%.2f", 100*r.Accuracy),
			fmt.Sprintf("%.2f", 100*r.Eval.FalsePositiveRate),
			fmt.Sprintf("%.2f", 100*r.Eval.FalseNegativeRate),
			fmt.Sprintf("%d", r.TrainWindow),
			fmt.Sprintf("%d", r.EvalWindow),
		}},
	}
}
