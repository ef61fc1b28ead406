package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"lfo/internal/lint"
)

// SanctionedTelemetry lists package paths (module-relative, suffix-matched)
// whose functions are treated as determinism-clean even though they read
// clocks: the observability layer records wall-clock latency by design,
// and its values feed metrics endpoints only — never decisions, labels,
// model bytes, or anything hashed into test goldens. Calls *into* these
// packages are not traversed; nothing in the deterministic core may be
// *implemented* there.
var SanctionedTelemetry = []string{"internal/obs"}

// taintKind classifies the root cause of a nondeterminism witness.
type taintKind string

const (
	taintClock taintKind = "wall clock"
	taintRand  taintKind = "global math/rand"
	taintEnv   taintKind = "environment read"
	taintFS    taintKind = "filesystem read"
	taintMap   taintKind = "unordered map iteration"
)

// taintWitness explains why a function is nondeterministic: the root
// source and the call chain from the function's first offending callee
// down to that source.
type taintWitness struct {
	kind taintKind
	// chain is the path to the source, outermost callee first, ending in
	// a description of the source itself with its position.
	chain []string
}

// osEnvReads and osFSReads are the os functions whose results depend on
// the host environment or filesystem state.
var osEnvReads = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
	"Getpid": true, "Getppid": true, "Hostname": true, "UserHomeDir": true,
	"UserCacheDir": true, "UserConfigDir": true, "TempDir": true, "Getwd": true,
}
var osFSReads = map[string]bool{
	"Open": true, "OpenFile": true, "ReadFile": true, "ReadDir": true,
	"Stat": true, "Lstat": true, "ReadLink": true,
}

// randConstructors build explicitly seeded generators (math/rand's New,
// NewSource, NewZipf; math/rand/v2's New, NewPCG, NewChaCha8, NewZipf)
// and are therefore deterministic; every other package-level function of
// either package draws from the process-global source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

// sourceRemedy is what flow-determinism says about a direct source call
// in the deterministic core, after the callee's name.
var sourceRemedy = map[taintKind]string{
	taintClock: "reads the wall clock; the deterministic core must take timestamps from the trace or an injected clock",
	taintRand:  "draws from the process-wide random source; the deterministic core must use an explicitly seeded *rand.Rand",
	taintEnv:   "reads the process environment; the deterministic core must take configuration as explicit inputs",
	taintFS:    "reads the filesystem; the deterministic core must take data as explicit inputs (load outside, pass values in)",
}

// sourceTaint classifies a statically resolved callee as a nondeterminism
// source, or returns "".
func sourceTaint(fn *types.Func) taintKind {
	pkg := fn.Pkg()
	if pkg == nil || recvOf(fn) != nil {
		return ""
	}
	switch pkg.Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return taintClock
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			return taintRand
		}
	case "os":
		if osEnvReads[fn.Name()] {
			return taintEnv
		}
		if osFSReads[fn.Name()] {
			return taintFS
		}
	}
	return ""
}

// sanctioned reports whether p is a sanctioned telemetry package.
func sanctioned(p *lint.Package) bool {
	for _, s := range SanctionedTelemetry {
		if matchesRel(p.Rel, s) {
			return true
		}
	}
	return false
}

// taintSummaries computes, by fixed point over the call graph, a
// nondeterminism witness for every function that transitively reaches a
// source. A function is tainted if its body calls a source directly
// (regardless of whether the result is used — rand.Shuffle taints by side
// effect), returns a slice built in map-iteration order, or calls a
// tainted module function outside the sanctioned telemetry boundary.
func taintSummaries(g *Graph) map[*Func]*taintWitness {
	sum := make(map[*Func]*taintWitness)
	// Base facts: direct sources.
	for _, fn := range g.Order {
		for _, c := range fn.Calls {
			if k := sourceTaint(c.Callee); k != "" {
				sum[fn] = &taintWitness{kind: k, chain: []string{srcDesc(g, c)}}
				break
			}
		}
		if sum[fn] == nil {
			if pos, ok := mapOrderReturn(fn); ok {
				sum[fn] = &taintWitness{kind: taintMap, chain: []string{fmt.Sprintf("map-ordered slice built at %s", g.position(pos))}}
			}
		}
	}
	// Propagate caller-ward until stable.
	for changed := true; changed; {
		changed = false
		for _, fn := range g.Order {
			if sum[fn] != nil {
				continue
			}
			for _, c := range fn.Calls {
				callee := g.Node(c.Callee)
				if callee == nil || sanctioned(callee.Pkg) {
					continue
				}
				w := sum[callee]
				if w == nil {
					continue
				}
				sum[fn] = &taintWitness{kind: w.kind, chain: append([]string{shortName(callee.Obj)}, w.chain...)}
				changed = true
				break
			}
		}
	}
	return sum
}

func srcDesc(g *Graph, c Call) string {
	return fmt.Sprintf("%s at %s", shortName(c.Callee), g.position(c.Site.Pos()))
}

func (g *Graph) position(pos token.Pos) string {
	p := g.Fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}

// mapOrderReturn reports whether fn returns a slice whose element order is
// dictated by map iteration: an unsorted lint.MapAppend whose slice
// reaches a return statement. It marks the *function* as a taint source,
// so callers in the deterministic core are flagged even when the map lives
// in a helper package.
func mapOrderReturn(fn *Func) (token.Pos, bool) {
	for _, a := range lint.MapAppends(fn.Pkg, fn.Decl.Body) {
		if !a.Sorted && returns(fn.Pkg, fn.Decl.Body, a.Obj) {
			return a.Stmt.Pos(), true
		}
	}
	return token.NoPos, false
}

// returns reports whether a return statement in body returns obj itself.
func returns(p *lint.Package, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			for _, e := range r.Results {
				if id, ok := ast.Unparen(e).(*ast.Ident); ok && p.Info.Uses[id] == obj {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// ruleFlowDeterminism builds the flow-determinism rule: in scoped packages
// (the deterministic core), report every direct source call and every
// call to a module function whose summary is tainted, in function bodies
// and in package-level variable initializers alike.
func ruleFlowDeterminism() lint.Rule {
	return lint.Rule{
		Name: "flow-determinism",
		Doc:  "forbid clocks, global rand, env/FS reads, and map order in the deterministic core, called directly or through any helper chain",
		RunModule: func(pkgs []*lint.Package, inScope func(*lint.Package) bool, report func(pos token.Pos, format string, args ...interface{})) {
			g := Build(pkgs)
			sum := taintSummaries(g)
			check := func(c Call) {
				if k := sourceTaint(c.Callee); k != "" {
					report(c.Site.Pos(), "%s %s", shortName(c.Callee), sourceRemedy[k])
					return
				}
				callee := g.Node(c.Callee)
				if callee == nil || sanctioned(callee.Pkg) {
					return
				}
				if w := sum[callee]; w != nil {
					report(c.Site.Pos(), "call to %s is nondeterministic (%s: %s → %s); deterministic-core outputs must not depend on it",
						shortName(callee.Obj), w.kind, shortName(callee.Obj), strings.Join(w.chain, " → "))
				}
			}
			for _, p := range pkgs {
				if !inScope(p) || sanctioned(p) {
					continue
				}
				for _, c := range initCalls(p) {
					check(c)
				}
			}
			for _, fn := range g.Order {
				if !inScope(fn.Pkg) || sanctioned(fn.Pkg) {
					continue
				}
				for _, c := range fn.Calls {
					check(c)
				}
			}
		},
	}
}
