package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"lfo/internal/lint"
)

// HotpathDirective marks a function whose entire static call tree must be
// allocation-free. Place it in the function's doc comment:
//
//	//lfo:hotpath
//	func (m *Model) Predict(row []float64) float64 { ... }
//
// The rule reports every allocation site — composite literals that reach
// the heap, make/new, append growth, closures, goroutine spawns, fmt
// calls, string/byte conversions, string concatenation, and interface
// boxing — in the annotated function and everything it statically calls,
// as well as call sites it cannot verify (interface methods, func values,
// unanalyzed stdlib). Waive individual sites with
// //lfolint:ignore hotpath-alloc <reason>; allocations inside panic
// arguments are exempt (the program is already dying).
const HotpathDirective = "//lfo:hotpath"

// allocAllowedPkgs are stdlib packages whose exported functions are known
// not to allocate on any path a hot loop would take: pure math, atomic
// ops, and the sync primitives' fast paths.
var allocAllowedPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync":        true,
	"sync/atomic": true,
	"runtime":     true,
}

// allocAllowedFuncs are individually vetted non-allocating stdlib
// functions from packages that otherwise do allocate.
var allocAllowedFuncs = map[string]bool{
	"io.ReadFull":    true,
	"io.ReadAtLeast": true,
	"errors.Is":      true,
	"errors.As":      true,
	"errors.Unwrap":  true,
	"sort.Search":    true,
}

// isHotpath reports whether the declaration carries the //lfo:hotpath
// directive in its doc comment.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == HotpathDirective || strings.HasPrefix(c.Text, HotpathDirective+" ") {
			return true
		}
	}
	return false
}

// hotChain records how a function became hot: the annotated root and the
// call path from it.
type hotChain struct {
	root *Func
	path []string // shortNames from root (exclusive) to this function (inclusive)
}

func (h hotChain) describe(fn *Func) string {
	if len(h.path) == 0 {
		return fmt.Sprintf("//lfo:hotpath function %s", shortName(fn.Obj))
	}
	return fmt.Sprintf("%s, reachable from //lfo:hotpath %s (via %s)",
		shortName(fn.Obj), shortName(h.root.Obj), strings.Join(h.path, " → "))
}

// ruleHotpathAlloc builds the hotpath-alloc rule: breadth-first over the
// static call graph from every annotated root, reporting each allocation
// site and unverifiable call at its own position (so waivers sit on the
// offending line), with the root chain in the message.
func ruleHotpathAlloc() lint.Rule {
	return lint.Rule{
		Name: "hotpath-alloc",
		Doc:  "enforce zero allocations in //lfo:hotpath functions and everything they statically call",
		RunModule: func(pkgs []*lint.Package, inScope func(*lint.Package) bool, report func(pos token.Pos, format string, args ...interface{})) {
			g := Build(pkgs)
			// BFS from the annotated roots; first chain to reach a
			// function wins (deterministic via g.Order).
			reached := make(map[*Func]hotChain)
			var queue []*Func
			for _, fn := range g.Order {
				if isHotpath(fn.Decl) && inScope(fn.Pkg) {
					reached[fn] = hotChain{root: fn}
					queue = append(queue, fn)
				}
			}
			for len(queue) > 0 {
				fn := queue[0]
				queue = queue[1:]
				chain := reached[fn]
				for _, c := range fn.Calls {
					callee := g.Node(c.Callee)
					if callee == nil {
						continue
					}
					if _, seen := reached[callee]; seen {
						continue
					}
					reached[callee] = hotChain{root: chain.root, path: append(append([]string(nil), chain.path...), shortName(callee.Obj))}
					queue = append(queue, callee)
				}
			}
			for _, fn := range g.Order {
				chain, hot := reached[fn]
				if !hot {
					continue
				}
				ctx := chain.describe(fn)
				inPanic := panicRanges(fn)
				reportAllocSites(fn, ctx, report)
				// Calls the engine cannot follow are findings too: an
				// unverified callee could allocate freely. fmt calls are
				// already reported by the site walker, and anything on a
				// panic path is exempt.
				for _, d := range fn.Dynamic {
					if inPanic(d.Site.Pos()) {
						continue
					}
					report(d.Site.Pos(), "in %s: dynamic call (%s) cannot be verified allocation-free; devirtualize or waive with a reason", ctx, d.Desc)
				}
				for _, c := range fn.Calls {
					if g.Node(c.Callee) != nil || allocAllowed(c.Callee) || inPanic(c.Site.Pos()) {
						continue
					}
					if pkg := c.Callee.Pkg(); pkg != nil && pkg.Path() == "fmt" {
						continue
					}
					report(c.Site.Pos(), "in %s: call into unanalyzed %s; hot paths may only call module code or vetted stdlib", ctx, shortName(c.Callee))
				}
			}
		},
	}
}

// panicRanges returns a predicate reporting whether a position lies
// inside the arguments of a panic call in fn — the allocation exemption
// zone.
func panicRanges(fn *Func) func(token.Pos) bool {
	type span struct{ lo, hi token.Pos }
	var spans []span
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && fn.Pkg.Builtin(call) == "panic" {
			spans = append(spans, span{call.Lparen, call.Rparen})
			return false
		}
		return true
	})
	return func(pos token.Pos) bool {
		for _, s := range spans {
			if pos > s.lo && pos < s.hi {
				return true
			}
		}
		return false
	}
}

// allocAllowed reports whether an out-of-module callee is vetted
// allocation-free.
func allocAllowed(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return true // error.Error and friends from the universe scope
	}
	if allocAllowedPkgs[pkg.Path()] {
		return true
	}
	if allocAllowedFuncs[pkg.Path()+"."+fn.Name()] {
		return true
	}
	// The encoding/binary byte-order methods (LittleEndian.Uint32 and
	// friends) are pure shifts; the reflection-based top-level
	// Read/Write/Size are not.
	if pkg.Path() == "encoding/binary" && recvOf(fn) != nil {
		return true
	}
	return false
}

// reportAllocSites walks one function body and reports every construct
// that allocates (or may), skipping panic arguments.
func reportAllocSites(fn *Func, ctx string, report func(pos token.Pos, format string, args ...interface{})) {
	p := fn.Pkg
	// Pre-pass: composite literals that are address-taken escape to the
	// heap even when their type alone would not force it.
	addrTaken := make(map[*ast.CompositeLit]bool)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if ue, ok := n.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			if cl, ok := ast.Unparen(ue.X).(*ast.CompositeLit); ok {
				addrTaken[cl] = true
			}
		}
		return true
	})
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if p.Builtin(n) == "panic" {
				return false // allocations on the panic path are exempt
			}
			reportCallAlloc(p, n, ctx, report)
		case *ast.CompositeLit:
			t := p.Info.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "in %s: slice literal allocates its backing array", ctx)
			case *types.Map:
				report(n.Pos(), "in %s: map literal allocates", ctx)
			default:
				if addrTaken[n] {
					report(n.Pos(), "in %s: address-taken composite literal escapes to the heap", ctx)
				}
			}
		case *ast.FuncLit:
			report(n.Pos(), "in %s: function literal allocates a closure", ctx)
		case *ast.GoStmt:
			report(n.Pos(), "in %s: go statement allocates a goroutine", ctx)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(p.Info.TypeOf(n)) && !isConstExpr(p, n) {
				report(n.Pos(), "in %s: string concatenation allocates", ctx)
				// Children of a concat chain would re-report; one finding
				// per chain is enough.
				return false
			}
		}
		return true
	})
}

// reportCallAlloc handles the call-shaped allocation sources: builtins,
// conversions, fmt, and interface boxing at argument positions.
func reportCallAlloc(p *lint.Package, call *ast.CallExpr, ctx string, report func(pos token.Pos, format string, args ...interface{})) {
	if b := p.Builtin(call); b != "" {
		switch b {
		case "append":
			report(call.Pos(), "in %s: append may grow and reallocate; preallocate or waive with the amortization argument", ctx)
		case "make", "new":
			report(call.Pos(), "in %s: %s allocates", ctx, b)
		}
		return
	}
	// Conversions: string <-> []byte/[]rune copy their payload.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type.Underlying(), p.Info.TypeOf(call.Args[0])
		if from != nil && !isConstExpr(p, call.Args[0]) {
			if isStringSliceConv(to, from.Underlying()) {
				report(call.Pos(), "in %s: string/byte-slice conversion copies its payload", ctx)
			}
		}
		return
	}
	callee, _ := resolveCall(p, call)
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		report(call.Pos(), "in %s: fmt.%s allocates (formatting state and boxed arguments)", ctx, callee.Name())
		return
	}
	// Interface boxing: a concrete non-pointer argument passed to an
	// interface-typed parameter allocates unless it is nil or already an
	// interface. Pointer-shaped values fit in the interface word.
	sig, ok := p.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := p.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) || isPointerShaped(at) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		report(arg.Pos(), "in %s: argument boxes a %s into interface %s", ctx, at.String(), pt.String())
	}
}

// isString reports whether t (nil for an untyped expression) is a string
// type.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(p *lint.Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

func isStringSliceConv(to, from types.Type) bool {
	toSlice, toIsSlice := to.(*types.Slice)
	fromSlice, fromIsSlice := from.(*types.Slice)
	toStr := isString(to)
	fromStr := isString(from)
	byteOrRune := func(s *types.Slice) bool {
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	if toIsSlice && fromStr {
		return byteOrRune(toSlice)
	}
	if toStr && fromIsSlice {
		return byteOrRune(fromSlice)
	}
	return false
}

// isPointerShaped reports whether values of t fit the interface data word
// without allocating: pointers, maps, channels, funcs, and unsafe
// pointers.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	}
	return false
}
