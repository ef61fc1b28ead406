// Package lint implements lfolint, the repository's custom static
// analyzer: the package loader, the rule runner with its policy tiers and
// waivers, and the four syntactic rules — map-iteration order in the
// deterministic core, float-comparison safety in the numeric kernels, and
// error and output hygiene in library code — using only the standard
// library's go/parser, go/ast, go/types, and go/token. Wall clocks, global
// randomness and WaitGroup discipline are checked by the interprocedural
// rules of package flow, which follow them through helper calls; locks
// copied by value are go vet's copylocks check.
//
// Rules are gated by per-package policy tiers (DefaultPolicy). Individual
// findings can be waived in place with
//
//	//lfolint:ignore <rule> <reason>
//
// on the offending line or the line above it; the reason is mandatory.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Rule names the rule that produced it (e.g. "map-order").
	Rule string
	// Message describes the problem and the expected remedy.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Rule is one lint check. Per-package rules set Run and are invoked once
// per in-scope package; module-wide rules (the interprocedural flow
// analyses) set RunModule instead and are invoked once with every loaded
// package, so they can follow call chains across package boundaries.
// Exactly one of Run and RunModule must be set.
type Rule struct {
	// Name identifies the rule in diagnostics and suppression directives.
	Name string
	// Doc is a one-line description, shown by lfolint -rules.
	Doc string
	// Run inspects one package and reports findings.
	Run func(p *Package, report func(pos token.Pos, format string, args ...interface{}))
	// RunModule inspects the whole module at once. inScope reports
	// whether findings rooted in a package should be reported (the rule
	// may still traverse out-of-scope packages for call-graph context).
	RunModule func(pkgs []*Package, inScope func(*Package) bool, report func(pos token.Pos, format string, args ...interface{}))
}

// Scope selects the packages a rule applies to, by module-relative path.
type Scope struct {
	// Include lists path prefixes ("internal/gbdt" matches the package
	// and its subpackages). An empty list matches every package.
	Include []string
	// Exclude lists path prefixes carved out of Include.
	Exclude []string
}

// Matches reports whether the module-relative package path rel is in scope.
func (s Scope) Matches(rel string) bool {
	for _, e := range s.Exclude {
		if matchPrefix(rel, e) {
			return false
		}
	}
	if len(s.Include) == 0 {
		return true
	}
	for _, i := range s.Include {
		if matchPrefix(rel, i) {
			return true
		}
	}
	return false
}

func matchPrefix(rel, sel string) bool {
	return rel == sel || strings.HasPrefix(rel, sel+"/")
}

// Policy maps rule names to the package scope they run in.
type Policy map[string]Scope

// DeterministicCore lists the packages whose output must be bit-identical
// for a given seed: the trace generator, the OPT labeler, the learner, and
// everything the experiment harness assembles from them.
var DeterministicCore = []string{
	"internal/gen",
	"internal/gbdt",
	"internal/opt",
	"internal/core",
	"internal/evict",
	"internal/experiments",
	"internal/features",
	"internal/policy/ogd",
	"internal/drift",
}

// NumericKernels lists the float-heavy packages where exact equality is a
// correctness hazard.
var NumericKernels = []string{
	"internal/gbdt",
	"internal/mrc",
	"internal/opt",
	"internal/analysis",
}

// DefaultPolicy returns the repository's policy tiers, for the syntactic
// rules of this package and the interprocedural rules of package flow
// alike: flow-determinism keeps clocks, global rand and host reads out of
// the deterministic core, however deep in a helper chain they hide; the
// other flow rules are module-wide because their findings are rooted
// wherever the annotation or spawn site lives.
func DefaultPolicy() Policy {
	mapOrder := append(append([]string(nil), DeterministicCore...), NumericKernels...)
	return Policy{
		"map-order":        {Include: mapOrder},
		"float-equal":      {Include: NumericKernels},
		"unchecked-error":  {},
		"fmt-print":        {Include: []string{"internal"}, Exclude: []string{"internal/cliutil"}},
		"flow-determinism": {Include: DeterministicCore},
		"hotpath-alloc":    {},
		"goroutine-join":   {},
		"lock-order":       {},
		StaleWaiverRule:    {},
	}
}

// Rules returns the syntactic rules of this package, in stable order.
func Rules() []Rule {
	return []Rule{
		ruleMapOrder(),
		ruleFloatEqual(),
		ruleUncheckedError(),
		ruleFmtPrint(),
	}
}

// StaleWaiverRule names the synthetic rule that flags //lfolint:ignore
// directives which no longer suppress anything. It is emitted by Run
// itself (not by a Rule) because staleness is only decidable after every
// other rule has reported: a directive is stale when all the rules it
// names ran and none of them produced a finding on its line, and dead
// when it names a rule the policy does not know. Enable it by including
// it in the policy; lfolint -only drops it automatically when the
// requested subset could not prove staleness.
const StaleWaiverRule = "stale-waiver"

// Run applies every rule its policy scopes to each package and returns the
// non-suppressed diagnostics sorted by position. Module-wide rules run
// once over the full package list. When the policy enables
// StaleWaiverRule, directives that suppress nothing, or name a rule the
// policy does not know, are reported too.
func Run(pkgs []*Package, rules []Rule, policy Policy) []Diagnostic {
	sup, diags := collectSuppressions(pkgs)
	ran := make(map[string]bool)
	for _, rule := range rules {
		scope, ok := policy[rule.Name]
		if !ok {
			continue // rule not enabled by this policy
		}
		ran[rule.Name] = true
		report := func(pos token.Pos, format string, args ...interface{}) {
			d := Diagnostic{Pos: pkgs[0].Fset.Position(pos), Rule: rule.Name, Message: fmt.Sprintf(format, args...)}
			if !sup.covers(d) {
				diags = append(diags, d)
			}
		}
		if rule.RunModule != nil {
			if len(pkgs) == 0 {
				continue
			}
			rule.RunModule(pkgs, func(p *Package) bool { return scope.Matches(p.Rel) }, report)
			continue
		}
		for _, pkg := range pkgs {
			if scope.Matches(pkg.Rel) {
				rule.Run(pkg, report)
			}
		}
	}
	if _, ok := policy[StaleWaiverRule]; ok {
		diags = append(diags, staleWaivers(sup, ran, policy)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}

// ignorePrefix introduces a suppression directive comment.
const ignorePrefix = "//lfolint:ignore"

// directive is one well-formed //lfolint:ignore comment. Run marks it
// used when it suppresses a finding; unused directives become
// stale-waiver findings themselves.
type directive struct {
	pos   token.Position
	rules []string
	// testFile marks directives found in _test.go files, which lfolint
	// never lints: such a waiver can never suppress anything.
	testFile bool
	used     bool
}

// suppressed indexes directives by (filename, line) and keeps the full
// list for the stale-waiver pass.
type suppressed struct {
	byLine map[string]map[int][]*directive
	all    []*directive
}

func (s *suppressed) covers(d Diagnostic) bool {
	lines := s.byLine[d.Pos.Filename]
	// A directive suppresses findings on its own line and the line below
	// it, so both trailing and standalone comment placement work.
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, dir := range lines[line] {
			for _, r := range dir.rules {
				if r == d.Rule {
					dir.used = true
					return true
				}
			}
		}
	}
	return false
}

// collectSuppressions scans every package's comments (including test
// files, where waivers are inert) for //lfolint:ignore directives.
// Directives missing a reason are reported immediately: a waiver with no
// justification is exactly the silent regression the linter exists to
// prevent.
func collectSuppressions(pkgs []*Package) (*suppressed, []Diagnostic) {
	sup := &suppressed{byLine: make(map[string]map[int][]*directive)}
	var malformed []Diagnostic
	for _, pkg := range pkgs {
		files := append(append([]*ast.File(nil), pkg.Files...), pkg.TestFiles...)
		for i, f := range files {
			isTest := i >= len(pkg.Files)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						malformed = append(malformed, Diagnostic{
							Pos:     pos,
							Rule:    "suppression",
							Message: "malformed //lfolint:ignore directive: want \"//lfolint:ignore <rule> <reason>\" with a non-empty reason",
						})
						continue
					}
					dir := &directive{pos: pos, rules: strings.Split(fields[0], ","), testFile: isTest}
					byLine := sup.byLine[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]*directive)
						sup.byLine[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], dir)
					sup.all = append(sup.all, dir)
				}
			}
		}
	}
	return sup, malformed
}

// staleWaivers reports directives that provably suppress nothing: those
// naming a rule the policy does not know, which can never fire, and those
// whose every rule was executed this run without firing on their line.
// Directives naming a known rule that did not run are skipped — their
// staleness is undecidable — except in test files, where no rule ever
// runs and every directive is dead by construction.
func staleWaivers(sup *suppressed, ran map[string]bool, policy Policy) []Diagnostic {
	var out []Diagnostic
	for _, dir := range sup.all {
		var unknown []string
		decidable := true
		for _, r := range dir.rules {
			if _, ok := policy[r]; !ok {
				unknown = append(unknown, r)
			}
			decidable = decidable && ran[r]
		}
		var msg string
		switch {
		case dir.testFile:
			msg = fmt.Sprintf("//lfolint:ignore %s in a _test.go file has no effect: lfolint does not lint test files; delete the directive", strings.Join(dir.rules, ","))
		case len(unknown) > 0:
			msg = fmt.Sprintf("unknown rule(s) %s can never report, so the waiver suppresses nothing; name a rule from lfolint -rules or delete the //lfolint:ignore directive", strings.Join(unknown, ","))
		case decidable && !dir.used:
			msg = fmt.Sprintf("stale waiver: rule(s) %s no longer report on this line; delete the //lfolint:ignore directive", strings.Join(dir.rules, ","))
		default:
			continue
		}
		out = append(out, Diagnostic{Pos: dir.pos, Rule: StaleWaiverRule, Message: msg})
	}
	return out
}

// inspect walks every file of the package.
func inspect(p *Package, fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// Callee resolves a call expression to the package-level function or
// method it names, or nil: builtins, conversions and calls through func
// values have no callee.
func (p *Package) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// Builtin returns the name of the builtin function call invokes
// ("append", "panic", "close", ...), or "".
func (p *Package) Builtin(call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
