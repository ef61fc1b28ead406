// Command lfolint runs the repository's custom static analyzer: the
// syntactic rules of internal/lint (map-iteration order in the
// deterministic core, float safety in the numeric kernels, error and
// output hygiene in library code) and the interprocedural rules of
// internal/lint/flow (clocks, global rand, host reads and map order kept
// out of the deterministic core through any helper chain, //lfo:hotpath
// allocation discipline, goroutine join paths and WaitGroup use, and lock
// ordering). Lock-copy hygiene is go vet's copylocks check.
//
// Usage:
//
//	lfolint [flags] [./... | package-dir ...]
//
// With no arguments (or "./...") every package in the enclosing module is
// checked. Specific package directories restrict reporting to those
// packages; the whole module is still loaded and analyzed so that
// cross-package call chains resolve.
//
// Exit status is 1 when any non-suppressed diagnostic is reported, 2 on
// load/usage errors, 0 otherwise. Findings can be waived in place with
// "//lfolint:ignore <rule> <reason>"; waivers that no longer suppress
// anything are themselves reported by the stale-waiver rule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lfo/internal/lint"
	"lfo/internal/lint/flow"
)

func main() {
	listRules := flag.Bool("rules", false, "list the lint rules and their policy scopes, then exit")
	only := flag.String("only", "", "comma-separated rule names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout (for CI and editors)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lfolint [flags] [./... | package-dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	policy := lint.DefaultPolicy()
	rules := flow.AllRules()
	if *listRules {
		for _, r := range rules {
			fmt.Printf("%-16s %s\n", r.Name, r.Doc)
		}
		fmt.Printf("%-16s %s\n", lint.StaleWaiverRule, "flag //lfolint:ignore directives that no longer suppress anything")
		return
	}
	if *only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		// Staleness is only decidable for waivers whose rules actually ran:
		// under a rule subset the audit runs only on explicit request.
		if !keep[lint.StaleWaiverRule] {
			delete(policy, lint.StaleWaiverRule)
		}
		delete(keep, lint.StaleWaiverRule)
		var filtered []lint.Rule
		for _, r := range rules {
			if keep[r.Name] {
				filtered = append(filtered, r)
				delete(keep, r.Name)
			}
		}
		for name := range keep {
			fatalf("unknown rule %q (see lfolint -rules)", name)
		}
		rules = filtered
	}

	root, err := moduleRoot()
	if err != nil {
		fatalf("%v", err)
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fatalf("%v", err)
	}

	// The full module is always analyzed — the flow rules need every
	// package in the call graph — and explicit directory arguments filter
	// the *findings*, not the analysis.
	diags := lint.Run(pkgs, rules, policy)
	if dirs := explicitDirs(flag.Args()); dirs != nil {
		diags = filterByDir(diags, pkgs, dirs)
	}

	cwd, _ := os.Getwd()
	if *jsonOut {
		type finding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		}
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{
				File:    relTo(cwd, d.Pos.Filename),
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Rule:    d.Rule,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatalf("encode findings: %v", err)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: [%s] %s\n", relTo(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lfolint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "lfolint: "+format+"\n", args...)
	os.Exit(2)
}

// relTo shortens an absolute filename to a cwd-relative one when that
// does not escape upward.
func relTo(cwd, name string) string {
	if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// explicitDirs returns the argument list as directories, or nil when the
// whole module is requested ("./...", "all", or no arguments).
func explicitDirs(args []string) []string {
	var dirs []string
	for _, a := range args {
		if a == "./..." || a == "..." || a == "all" {
			return nil
		}
		dirs = append(dirs, strings.TrimSuffix(a, "/..."))
	}
	return dirs
}

// filterByDir keeps the diagnostics located in the requested package
// directories. It also validates that every argument names a loaded
// package, so a typo fails loudly instead of silencing the run.
func filterByDir(diags []lint.Diagnostic, pkgs []*lint.Package, dirs []string) []lint.Diagnostic {
	want := make(map[string]bool)
	for _, d := range dirs {
		abs, err := filepath.Abs(d)
		if err != nil {
			fatalf("%v", err)
		}
		want[abs] = true
	}
	known := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		known[p.Dir] = true
	}
	for dir := range want {
		if !known[dir] {
			fatalf("no package in directory %s", dir)
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if want[filepath.Dir(d.Pos.Filename)] {
			out = append(out, d)
		}
	}
	return out
}
