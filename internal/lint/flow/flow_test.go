package flow_test

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"lfo/internal/lint"
	"lfo/internal/lint/flow"
)

// ruleFixtures maps each flow rule to the fixture packages that carry its
// // want annotations. Every rule runs over the *whole* fixture module —
// the analyses are interprocedural, so out-of-scope packages still feed
// the call graph — but findings may only land in the listed packages.
var ruleFixtures = map[string][]string{
	"flow-determinism": {"core"},
	"hotpath-alloc":    {"hot", "hotutil"},
	"goroutine-join":   {"gr"},
	"lock-order":       {"locks"},
}

// rulePolicy scopes each rule the way DefaultPolicy does: determinism
// taint is confined to the fixture's stand-in core, the rest are
// module-wide.
var rulePolicy = map[string]lint.Scope{
	"flow-determinism": {Include: []string{"core"}},
	"hotpath-alloc":    {},
	"goroutine-join":   {},
	"lock-order":       {},
}

func loadFixtures(t *testing.T) []*lint.Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.NewLoader(root, "fixture").LoadAll()
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	return pkgs
}

func ruleByName(t *testing.T, name string) lint.Rule {
	t.Helper()
	for _, r := range flow.Rules() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no flow rule named %q", name)
	return lint.Rule{}
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// wants extracts the expected-diagnostic annotations of the given fixture
// packages: (file, line) -> expected message substrings.
func wants(pkgs []*lint.Package, rels []string) map[string][]string {
	want := make(map[string]bool, len(rels))
	for _, r := range rels {
		want[r] = true
	}
	out := make(map[string][]string)
	for _, p := range pkgs {
		if !want[p.Rel] {
			continue
		}
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
	}
	return out
}

// TestGoldenFixtures runs each flow rule over the full fixture module and
// requires an exact match between reported diagnostics and // want
// annotations. The headline cases cross a package boundary: determinism
// taint surfaces in core via helper → helper/deep → time.Now, and the
// hotpath alloc in hotutil is two packages away from the //lfo:hotpath
// annotation in hot. The single-package cases of flow-determinism and
// goroutine-join are lint's timenow, globalrand and wgmisuse fixtures.
func TestGoldenFixtures(t *testing.T) {
	pkgs := loadFixtures(t)
	for ruleName, rels := range ruleFixtures {
		t.Run(ruleName, func(t *testing.T) {
			rule := ruleByName(t, ruleName)
			policy := lint.Policy{rule.Name: rulePolicy[ruleName]}
			diags := lint.Run(pkgs, []lint.Rule{rule}, policy)

			expected := wants(pkgs, rels)
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

// TestTaintChainNamesEveryHop pins the diagnostic quality contract: a
// cross-package taint finding must spell out the full helper chain down
// to the source call, or nobody can act on it.
func TestTaintChainNamesEveryHop(t *testing.T) {
	pkgs := loadFixtures(t)
	rule := ruleByName(t, "flow-determinism")
	diags := lint.Run(pkgs, []lint.Rule{rule}, lint.Policy{rule.Name: {Include: []string{"core"}}})
	var chain string
	for _, d := range diags {
		if strings.Contains(d.Message, "helper.Laundered") {
			chain = d.Message
			break
		}
	}
	if chain == "" {
		t.Fatal("no diagnostic mentions helper.Laundered")
	}
	for _, hop := range []string{"helper.Laundered", "deep.Stamp", "time.Now"} {
		if !strings.Contains(chain, hop) {
			t.Errorf("taint chain omits hop %q: %s", hop, chain)
		}
	}
}

// TestHotpathWaiverIsHonored checks the waiver contract on the hot path:
// the //lfolint:ignore hotpath-alloc directive in hot.go must suppress
// the new(float64) finding on the line below it, and only that finding.
func TestHotpathWaiverIsHonored(t *testing.T) {
	pkgs := loadFixtures(t)
	rule := ruleByName(t, "hotpath-alloc")
	diags := lint.Run(pkgs, []lint.Rule{rule}, lint.Policy{rule.Name: {}})
	for _, d := range diags {
		if strings.Contains(d.Message, "new allocates") {
			t.Errorf("waived new(float64) finding leaked through: %s", d)
		}
	}
}

// TestAllRulesHaveFixtures keeps flow.Rules and the fixture map in sync,
// and keeps DefaultPolicy's keys exactly the names of flow.AllRules plus
// stale-waiver, so the repo gate runs every rule and no policy entry
// names a rule that does not exist.
func TestAllRulesHaveFixtures(t *testing.T) {
	for _, r := range flow.Rules() {
		if _, ok := ruleFixtures[r.Name]; !ok {
			t.Errorf("flow rule %q has no fixture entry in ruleFixtures", r.Name)
		}
		if r.RunModule == nil {
			t.Errorf("flow rule %q must be module-wide (RunModule)", r.Name)
		}
	}
	policy := lint.DefaultPolicy()
	names := map[string]bool{lint.StaleWaiverRule: true}
	for _, r := range flow.AllRules() {
		names[r.Name] = true
		if _, ok := policy[r.Name]; !ok {
			t.Errorf("rule %q missing from lint.DefaultPolicy", r.Name)
		}
	}
	for name := range policy {
		if !names[name] {
			t.Errorf("lint.DefaultPolicy scopes %q, which is no rule", name)
		}
	}
}

// TestRepoIsFlowClean is the enforceable gate: the repository itself must
// stay free of non-suppressed findings under the rule list and policy
// cmd/lfolint runs — syntactic and flow rules and the stale-waiver audit
// over one module load — so a regression fails go test (tier 1) as well
// as scripts/check.sh.
func TestRepoIsFlowClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags := lint.Run(pkgs, flow.AllRules(), lint.DefaultPolicy())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
