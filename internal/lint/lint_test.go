package lint_test

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"lfo/internal/lint"
	"lfo/internal/lint/flow"
)

// fixtureRule maps each fixture package under testdata/src to the rule it
// exercises. Every syntactic rule must appear at least once: the golden
// files are what proves a rule actually fires. The single-package cases of
// two flow rules live here too — direct clock and rand reads for
// flow-determinism, WaitGroup misuse for goroutine-join — while their
// cross-package cases are in the flow fixture module.
var fixtureRule = map[string]string{
	"timenow":      "flow-determinism",
	"globalrand":   "flow-determinism",
	"maporder":     "map-order",
	"floateq":      "float-equal",
	"uncheckederr": "unchecked-error",
	"fmtprint":     "fmt-print",
	"mutexcopy":    "mutex-copy",
	"wgmisuse":     "goroutine-join",
	"suppress":     "fmt-print", // exercises the waiver mechanism
	"suppressbad":  "fmt-print", // checked by TestMalformedSuppression
	"stalewaiver":  "fmt-print", // checked by TestStaleWaiver
}

func loadFixtures(t *testing.T) map[string]*lint.Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.NewLoader(root, "fixture").LoadAll()
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	byRel := make(map[string]*lint.Package, len(pkgs))
	for _, p := range pkgs {
		byRel[p.Rel] = p
	}
	return byRel
}

func ruleByName(t *testing.T, name string) lint.Rule {
	t.Helper()
	for _, r := range flow.AllRules() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no rule named %q", name)
	return lint.Rule{}
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// wants extracts the expected-diagnostic annotations of a fixture package:
// (file, line) -> expected message substrings.
func wants(p *lint.Package) map[string][]string {
	out := make(map[string][]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					pos := p.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					out[key] = append(out[key], m[1])
				}
			}
		}
	}
	return out
}

// TestGoldenFixtures runs each rule over its fixture package and requires
// an exact match between reported diagnostics and // want annotations.
// Disabling a rule makes its wants unmatched, so every rule has a test
// that fails without it.
func TestGoldenFixtures(t *testing.T) {
	byRel := loadFixtures(t)
	for rel, ruleName := range fixtureRule {
		if rel == "suppressbad" {
			continue // covered by TestMalformedSuppression
		}
		t.Run(rel, func(t *testing.T) {
			p, ok := byRel[rel]
			if !ok {
				t.Fatalf("fixture package %q not loaded", rel)
			}
			rule := ruleByName(t, ruleName)
			policy := lint.Policy{rule.Name: lint.Scope{}}
			diags := lint.Run([]*lint.Package{p}, []lint.Rule{rule}, policy)

			expected := wants(p)
			matched := 0
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
				subs := expected[key]
				found := false
				for i, sub := range subs {
					if strings.Contains(d.Message, sub) {
						expected[key] = append(subs[:i], subs[i+1:]...)
						found = true
						matched++
						break
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for key, subs := range expected {
				for _, sub := range subs {
					t.Errorf("missing diagnostic at %s: want message containing %q", key, sub)
				}
			}
			if t.Failed() {
				t.Logf("rule %s reported %d diagnostic(s), matched %d", ruleName, len(diags), matched)
			}
		})
	}
}

// TestMalformedSuppression verifies that a reasonless directive is itself
// reported and does not waive the finding it sits above.
func TestMalformedSuppression(t *testing.T) {
	p := loadFixtures(t)["suppressbad"]
	if p == nil {
		t.Fatal("fixture package suppressbad not loaded")
	}
	rule := ruleByName(t, "fmt-print")
	diags := lint.Run([]*lint.Package{p}, []lint.Rule{rule}, lint.Policy{rule.Name: lint.Scope{}})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (malformed directive + unsuppressed finding):\n%v", len(diags), diags)
	}
	if diags[0].Rule != "suppression" || !strings.Contains(diags[0].Message, "malformed") {
		t.Errorf("first diagnostic should report the malformed directive, got %s", diags[0])
	}
	if diags[1].Rule != "fmt-print" {
		t.Errorf("second diagnostic should be the unsuppressed fmt-print finding, got %s", diags[1])
	}
}

// TestStaleWaiver pins the directive fates: a waiver suppressing a live
// finding stays silent, a waiver whose rule ran but no longer fires
// becomes a finding, a waiver naming a policy rule that did not run is
// left alone, a waiver naming a rule the policy does not know is
// reported, and a waiver in a _test.go file is always reported dead.
func TestStaleWaiver(t *testing.T) {
	p := loadFixtures(t)["stalewaiver"]
	if p == nil {
		t.Fatal("fixture package stalewaiver not loaded")
	}
	rule := ruleByName(t, "fmt-print")
	// float-equal is in the policy but not run: the Undecidable waiver.
	policy := lint.Policy{rule.Name: lint.Scope{}, "float-equal": lint.Scope{}, lint.StaleWaiverRule: lint.Scope{}}
	diags := lint.Run([]*lint.Package{p}, []lint.Rule{rule}, policy)
	want := []struct{ file, msg string }{
		{"stalewaiver.go", "stale waiver: rule(s) fmt-print"},
		{"stalewaiver.go", "unknown rule(s) time-now"},
		{"stalewaiver_test.go", "_test.go file has no effect"},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d (stale, unknown, dead test-file waiver):\n%v", len(diags), len(want), diags)
	}
	for i, d := range diags {
		if d.Rule != lint.StaleWaiverRule {
			t.Errorf("diagnostic has rule %q, want %q: %s", d.Rule, lint.StaleWaiverRule, d)
		}
		if filepath.Base(d.Pos.Filename) != want[i].file || !strings.Contains(d.Message, want[i].msg) {
			t.Errorf("diagnostic %d = %s, want one in %s containing %q", i, d, want[i].file, want[i].msg)
		}
	}
	// Without StaleWaiverRule in the policy nothing is reported: the live
	// waiver suppresses its finding and staleness is not audited.
	if extra := lint.Run([]*lint.Package{p}, []lint.Rule{rule}, lint.Policy{rule.Name: lint.Scope{}}); len(extra) != 0 {
		t.Errorf("policy without %s still reported %v", lint.StaleWaiverRule, extra)
	}
}

// TestEveryRuleHasFixture keeps the rule set and the golden files in sync.
func TestEveryRuleHasFixture(t *testing.T) {
	covered := make(map[string]bool)
	for _, rn := range fixtureRule {
		covered[rn] = true
	}
	for _, r := range lint.Rules() {
		if !covered[r.Name] {
			t.Errorf("rule %q has no golden fixture under testdata/src", r.Name)
		}
	}
	policy := lint.DefaultPolicy()
	for _, r := range lint.Rules() {
		if _, ok := policy[r.Name]; !ok {
			t.Errorf("rule %q missing from DefaultPolicy", r.Name)
		}
	}
}

// TestDefaultPolicyTiers pins the policy scoping: determinism rules cover
// the deterministic core only, float rules the numeric kernels only, and
// hygiene rules everything (with cliutil exempt from fmt-print).
func TestDefaultPolicyTiers(t *testing.T) {
	policy := lint.DefaultPolicy()
	cases := []struct {
		rule string
		rel  string
		want bool
	}{
		{"flow-determinism", "internal/gbdt", true},
		{"flow-determinism", "internal/opt", true},
		{"flow-determinism", "internal/experiments", true},
		{"flow-determinism", "internal/trace", false}, // I/O layer may read clocks
		{"flow-determinism", "cmd/lfosim", false},
		{"flow-determinism", "internal/gen", true},
		{"flow-determinism", "internal/server", false},
		{"map-order", "internal/analysis", true},
		{"map-order", "internal/core", true},
		{"float-equal", "internal/opt", true},
		{"float-equal", "internal/mrc", true},
		{"float-equal", "internal/gen", false},
		{"unchecked-error", "cmd/optcalc", true},
		{"unchecked-error", "internal/server", true},
		{"unchecked-error", "", true}, // module root package
		{"fmt-print", "internal/analysis", true},
		{"fmt-print", "internal/cliutil", false}, // the sanctioned output layer
		{"fmt-print", "cmd/lfosim", false},       // CLIs own their stdout
		{"mutex-copy", "internal/tiered", true},
		{"mutex-copy", "examples/quickstart", true},
		{"goroutine-join", "internal/server", true},
		{"goroutine-join", "internal/par", true},
		{"goroutine-join", "cmd/lfosim", true},
	}
	for _, c := range cases {
		scope, ok := policy[c.rule]
		if !ok {
			t.Errorf("rule %q not in DefaultPolicy", c.rule)
			continue
		}
		if got := scope.Matches(c.rel); got != c.want {
			t.Errorf("policy[%s].Matches(%q) = %v, want %v", c.rule, c.rel, got, c.want)
		}
	}
}

// TestRepoIsLintClean gates the repository under the syntactic rules, so
// go test ./internal/lint alone catches a regression. The full gate, every
// rule cmd/lfolint runs, is flow's TestRepoIsFlowClean.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags := lint.Run(pkgs, lint.Rules(), lint.DefaultPolicy())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
