package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// calleeIs reports whether call invokes a package-level function of
// pkgPath.
func calleeIs(p *Package, call *ast.CallExpr, pkgPath string) bool {
	fn := p.Callee(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// ruleMapOrder flags `range` over a map whose body has order-dependent
// effects: appending to an outer slice, writing output, or accumulating
// floating-point sums (float addition is not associative, so iteration
// order changes the result bits). Collecting just the keys is allowed when
// the enclosing function visibly sorts the collector afterwards — that is
// the canonical deterministic pattern.
func ruleMapOrder() Rule {
	return Rule{
		Name: "map-order",
		Doc:  "flag map iteration with order-dependent effects (appends, output, float accumulation)",
		Run: func(p *Package, report func(pos token.Pos, format string, args ...interface{})) {
			for _, f := range p.Files {
				for _, d := range f.Decls {
					fn, ok := d.(*ast.FuncDecl)
					if !ok || fn.Body == nil {
						continue
					}
					for _, a := range MapAppends(p, fn.Body) {
						if a.OnlyLoopVars && a.Sorted {
							continue // collect-then-sort: the deterministic idiom
						}
						report(a.Stmt.Pos(), "append to %q inside map iteration makes its element order depend on map order; collect keys and sort first", a.Obj.Name())
					}
					eachMapRange(p, fn.Body, func(rs *ast.RangeStmt) { checkMapEffects(p, rs, report) })
				}
			}
		},
	}
}

// MapAppend is an append, inside a range over a map, to a slice declared
// outside that range: unless the slice is sorted afterwards, its element
// order is the map's iteration order. The map-order rule and the
// flow-determinism rule's map-order taint source both read it.
type MapAppend struct {
	// Stmt is the `x = append(x, ...)` statement, and Obj is x.
	Stmt *ast.AssignStmt
	Obj  types.Object
	// OnlyLoopVars reports whether every appended value is a bare key or
	// value variable of the range: the loop only collects.
	OnlyLoopVars bool
	// Sorted reports whether the function passes x to a sort.* or
	// slices.* call after the range.
	Sorted bool
}

// MapAppends returns the map appends of a function body in source order,
// those in function literals inside it included.
func MapAppends(p *Package, body *ast.BlockStmt) []MapAppend {
	var out []MapAppend
	eachMapRange(p, body, func(rs *ast.RangeStmt) {
		lv := loopVars(p, rs)
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			stmt, ok := n.(*ast.AssignStmt)
			if !ok || (stmt.Tok != token.ASSIGN && stmt.Tok != token.DEFINE) {
				return true
			}
			for i, rhs := range stmt.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || p.Builtin(call) != "append" || i >= len(stmt.Lhs) {
					continue
				}
				id, ok := stmt.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if obj, outside := declaredOutside(p, id, rs); outside {
					out = append(out, MapAppend{
						Stmt:         stmt,
						Obj:          obj,
						OnlyLoopVars: appendsOnlyLoopVars(call, lv, p),
						Sorted:       sortedAfter(p, body, rs, obj),
					})
				}
			}
			return true
		})
	})
	return out
}

// eachMapRange calls fn for every range statement over a map in body.
func eachMapRange(p *Package, body *ast.BlockStmt, fn func(*ast.RangeStmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if t := p.Info.TypeOf(rs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					fn(rs)
				}
			}
		}
		return true
	})
}

// loopVars returns the objects bound by the range statement's key/value.
func loopVars(p *Package, rs *ast.RangeStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id != nil {
			if obj := p.Info.Defs[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	return vars
}

// declaredOutside reports whether ident's object is declared outside the
// given node's extent.
func declaredOutside(p *Package, id *ast.Ident, n ast.Node) (types.Object, bool) {
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	if obj == nil {
		return nil, false
	}
	return obj, obj.Pos() < n.Pos() || obj.Pos() > n.End()
}

// checkMapEffects reports the map range's order-dependent effects other
// than appends: float accumulation into an outer variable and output.
func checkMapEffects(p *Package, rs *ast.RangeStmt, report func(pos token.Pos, format string, args ...interface{})) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			switch stmt.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				// Float accumulation: addition is not associative, so the
				// accumulated bits depend on visit order.
				id, ok := stmt.Lhs[0].(*ast.Ident)
				if !ok {
					break
				}
				if _, outside := declaredOutside(p, id, rs); !outside {
					break
				}
				if isFloat(p.Info.TypeOf(stmt.Lhs[0])) {
					report(stmt.Pos(), "floating-point accumulation into %q inside map iteration is order-dependent; iterate sorted keys", id.Name)
				}
			}
		case *ast.CallExpr:
			if writesOutput(p, stmt) {
				report(stmt.Pos(), "output written inside map iteration appears in map order; iterate sorted keys")
				return false // one finding per write call
			}
		}
		return true
	})
}

// appendsOnlyLoopVars reports whether every appended value is a bare range
// variable — i.e. the loop only collects keys/values.
func appendsOnlyLoopVars(call *ast.CallExpr, lv map[types.Object]bool, p *Package) bool {
	for _, arg := range call.Args[1:] {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok || !lv[p.Info.Uses[id]] {
			return false
		}
	}
	return true
}

// sortedAfter reports whether, after the range statement, the function
// body passes obj to a sort.* or slices.* call.
func sortedAfter(p *Package, body *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || found {
			return !found
		}
		if !calleeIs(p, call, "sort") && !calleeIs(p, call, "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && p.Info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// writesOutput reports whether the call is an fmt print/write or an
// io.Writer-style method — side effects whose order the map dictates.
func writesOutput(p *Package, call *ast.CallExpr) bool {
	if fn := p.Callee(call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		name := fn.Name()
		return strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
		_, isMethod := p.Info.Selections[sel]
		return isMethod
	}
	return false
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
