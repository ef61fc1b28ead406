// Package flow implements lfolint's interprocedural analyses: a
// module-wide call graph with summary-based, fixed-point propagation, and
// four rules built on top of it.
//
//   - flow-determinism: wall clocks, global randomness, environment and
//     filesystem reads, and unordered map iteration must not reach the
//     deterministic core — called directly or laundered through
//     arbitrarily deep helper chains across packages, from a function body
//     or a package-level initializer.
//   - hotpath-alloc: functions annotated //lfo:hotpath — and everything
//     they statically call — must not allocate (composite literals, append
//     growth, boxing, fmt, closures, goroutines, ...).
//   - goroutine-join: every spawned goroutine needs a visible join path
//     (a WaitGroup accounted before the spawn, or a completion signal —
//     channel operation or WaitGroup.Done — inside the goroutine), and a
//     spawned literal must neither call wg.Add nor call wg.Done undeferred.
//   - lock-order: mutexes must be acquired in a consistent pairwise order
//     across the whole module, including locks taken by callees.
//
// Like the syntactic rules in package lint, everything here is stdlib-only
// (go/ast + go/types). The engine is sound only over *static* call edges:
// calls through interfaces or function values cannot be followed, so the
// hot-path rule reports them as unverifiable and the determinism rule
// documents them as a known blind spot.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"lfo/internal/lint"
)

// Func is one module function or method with a body, a node of the call
// graph. Function literals are attributed to their enclosing declaration:
// their statements, call sites, and allocation sites all count against the
// declared function that contains them.
type Func struct {
	// Obj is the canonical (generic-origin) function object.
	Obj *types.Func
	// Decl is the declaration; Decl.Body is non-nil.
	Decl *ast.FuncDecl
	// Pkg is the package holding the declaration.
	Pkg *lint.Package
	// Calls are the statically resolved call sites, in source order.
	Calls []Call
	// Dynamic are call sites the engine cannot resolve (interface
	// methods, func values), in source order.
	Dynamic []DynSite
}

// Call is one statically resolved call site.
type Call struct {
	// Site is the call expression.
	Site *ast.CallExpr
	// Callee is the canonical callee object. It has a Graph node only if
	// it is declared (with a body) inside the module.
	Callee *types.Func
}

// DynSite is a call site whose target cannot be determined statically.
type DynSite struct {
	// Site is the call expression.
	Site *ast.CallExpr
	// Desc says why the target is unknown ("interface method (io.Reader).Read",
	// "func value fn", ...).
	Desc string
}

// Graph is the module-wide call graph.
type Graph struct {
	// Pkgs are the packages the graph was built from.
	Pkgs []*lint.Package
	// Funcs maps canonical function objects to their nodes.
	Funcs map[*types.Func]*Func
	// Order lists every node sorted by source position, so fixed-point
	// iteration and reporting are deterministic.
	Order []*Func
	// Fset positions every node.
	Fset *token.FileSet
}

// Build constructs the call graph over every declared function of pkgs.
func Build(pkgs []*lint.Package) *Graph {
	g := &Graph{Pkgs: pkgs, Funcs: make(map[*types.Func]*Func)}
	if len(pkgs) > 0 {
		g.Fset = pkgs[0].Fset
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &Func{Obj: canonical(obj), Decl: fd, Pkg: p}
				fn.Calls, fn.Dynamic = collectCalls(p, fd.Body)
				g.Funcs[fn.Obj] = fn
				g.Order = append(g.Order, fn)
			}
		}
	}
	sort.Slice(g.Order, func(i, j int) bool {
		a, b := g.Fset.Position(g.Order[i].Decl.Pos()), g.Fset.Position(g.Order[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return g
}

// Node returns the graph node for fn (resolving generic instantiations to
// their origin), or nil if fn is not declared in the module.
func (g *Graph) Node(fn *types.Func) *Func {
	if fn == nil {
		return nil
	}
	return g.Funcs[canonical(fn)]
}

// canonical maps an instantiated generic function or method to the
// declared origin object that keys the graph.
func canonical(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// collectCalls resolves every call expression under root, including those
// inside nested function literals, in source order.
func collectCalls(p *lint.Package, root ast.Node) (calls []Call, dynamic []DynSite) {
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, dyn := resolveCall(p, call)
		switch {
		case callee != nil:
			calls = append(calls, Call{Site: call, Callee: callee})
		case dyn != "":
			dynamic = append(dynamic, DynSite{Site: call, Desc: dyn})
		}
		return true
	})
	return calls, dynamic
}

// initCalls returns the statically resolved calls in p's package-level
// variable initializers, function literals among them, in source order.
// No graph node holds them: they run once, at package initialization.
func initCalls(p *lint.Package) []Call {
	var calls []Call
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				c, _ := collectCalls(p, gd)
				calls = append(calls, c...)
			}
		}
	}
	return calls
}

// resolveCall classifies a call expression. It returns a non-nil callee
// for statically resolved calls, a non-empty description for dynamic
// calls, and (nil, "") for non-calls in call syntax: conversions, builtin
// invocations, and immediately-invoked function literals (whose bodies are
// already part of the enclosing node).
func resolveCall(p *lint.Package, call *ast.CallExpr) (callee *types.Func, dynamic string) {
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation: f[T](...) / x.m[T](...).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if p.Info.Types[idx.X].IsType() {
			return nil, "" // conversion to a generic type
		}
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := p.Info.Uses[fun].(type) {
		case *types.Func:
			return canonical(obj), ""
		case *types.Builtin, *types.TypeName:
			return nil, "" // builtin or conversion: handled by the walkers
		case *types.Var:
			return nil, "func value " + fun.Name
		case nil:
			return nil, "" // conversion to an unnamed type
		}
		return nil, "call through " + fun.Name
	case *ast.SelectorExpr:
		switch obj := p.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			if recv := recvOf(obj); recv != nil && types.IsInterface(recv.Type()) {
				return nil, "interface method " + shortName(obj)
			}
			return canonical(obj), ""
		case *types.Var:
			return nil, "func-valued field/variable " + fun.Sel.Name
		case *types.TypeName:
			return nil, "" // conversion to a package-qualified type
		}
		return nil, "call through " + fun.Sel.Name
	case *ast.FuncLit:
		return nil, "" // immediately invoked; body walked in place
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.StarExpr,
		*ast.InterfaceType, *ast.StructType, *ast.FuncType:
		return nil, "" // conversion
	}
	return nil, "indirect call"
}

// recvOf returns the receiver variable of a method, or nil.
func recvOf(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Recv()
}

// shortName renders a function object for diagnostics with package names
// instead of full import paths: "par.Ranges", "(*gbdt.Model).Predict".
func shortName(fn *types.Func) string {
	name := fn.FullName()
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() != pkg.Name() {
		name = strings.ReplaceAll(name, pkg.Path()+".", pkg.Name()+".")
	}
	return name
}

// Rules returns the interprocedural flow rules in stable order.
func Rules() []lint.Rule {
	return []lint.Rule{
		ruleFlowDeterminism(),
		ruleHotpathAlloc(),
		ruleGoroutineJoin(),
		ruleLockOrder(),
	}
}

// AllRules returns every rule lfolint runs — the syntactic rules of
// package lint, then the flow rules — the one list cmd/lfolint and the
// repository gate share, and whose names are lint.DefaultPolicy's keys.
func AllRules() []lint.Rule {
	return append(lint.Rules(), Rules()...)
}

// matchesRel reports whether the module-relative package path rel matches
// sel, either exactly, as a path prefix of rel, or as a trailing path
// ("internal/obs" matches "x/internal/obs" so fixtures can stand in for
// real trees).
func matchesRel(rel, sel string) bool {
	return rel == sel || strings.HasPrefix(rel, sel+"/") || strings.HasSuffix(rel, "/"+sel)
}
