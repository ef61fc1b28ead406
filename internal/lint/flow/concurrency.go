package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"lfo/internal/lint"
)

// isSyncMethod reports whether fn is the named method on the named sync
// type (WaitGroup, Mutex, RWMutex, ...), directly or through a pointer
// receiver.
func isSyncMethod(fn *types.Func, typeName string, names ...string) bool {
	if fn == nil {
		return false
	}
	recv := recvOf(fn)
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" || named.Obj().Name() != typeName {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// signalSummaries computes, by fixed point, which functions contain a
// completion signal a waiter could observe: any channel operation (send,
// receive, close, select, range-over-channel), a WaitGroup method, or a
// call to a module function that signals.
func signalSummaries(g *Graph) map[*Func]bool {
	sig := make(map[*Func]bool)
	for _, fn := range g.Order {
		if nodeSignals(fn.Pkg, fn.Decl.Body, nil, nil) {
			sig[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.Order {
			if sig[fn] {
				continue
			}
			for _, c := range fn.Calls {
				if callee := g.Node(c.Callee); callee != nil && sig[callee] {
					sig[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return sig
}

// nodeSignals reports whether the AST subtree contains a direct completion
// signal, or (when g and sig are non-nil) a call to a module function
// whose summary signals.
func nodeSignals(p *lint.Package, node ast.Node, g *Graph, sig map[*Func]bool) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if p.Builtin(n) == "close" {
				found = true
				return false
			}
			fn := p.Callee(n)
			if isSyncMethod(fn, "WaitGroup", "Done", "Wait", "Add") {
				found = true
				return false
			}
			if g != nil && fn != nil {
				if callee := g.Node(fn); callee != nil && sig[callee] {
					found = true
					return false
				}
			}
		}
		return !found
	})
	return found
}

// ruleGoroutineJoin builds the goroutine-join rule. Every go statement
// must have a visible join path — a WaitGroup.Add on the spawning side
// before the statement, or a completion signal (channel op / WaitGroup
// method) inside the spawned function, possibly via its callees: a
// goroutine nobody can wait for outlives shutdown silently, so work is
// lost on exit and tests leak state between cases. A spawned function
// literal must also use its WaitGroup the safe way (see
// reportWaitGroupMisuse).
func ruleGoroutineJoin() lint.Rule {
	return lint.Rule{
		Name: "goroutine-join",
		Doc:  "flag goroutines spawned without a join path (no prior wg.Add, no channel/WaitGroup signal inside), and wg.Add or a non-deferred wg.Done inside a spawned literal",
		RunModule: func(pkgs []*lint.Package, inScope func(*lint.Package) bool, report func(pos token.Pos, format string, args ...interface{})) {
			g := Build(pkgs)
			sig := signalSummaries(g)
			for _, fn := range g.Order {
				if !inScope(fn.Pkg) {
					continue
				}
				p := fn.Pkg
				ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
					gs, ok := n.(*ast.GoStmt)
					if !ok {
						return true
					}
					lit, _ := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
					if lit != nil {
						reportWaitGroupMisuse(p, lit, report)
					}
					if !joinable(g, sig, fn, gs, lit) {
						report(gs.Pos(), "goroutine has no visible join path: no wg.Add before the spawn and no channel/WaitGroup signal inside it (or its callees); a caller cannot wait for this work to finish")
					}
					return true
				})
			}
		},
	}
}

// joinable reports whether a caller can wait for the goroutine gs spawns
// in fn: it is accounted to a WaitGroup before the spawn, or the spawned
// function (lit, when it is a literal) signals completion itself or
// through its callees.
func joinable(g *Graph, sig map[*Func]bool, fn *Func, gs *ast.GoStmt, lit *ast.FuncLit) bool {
	p := fn.Pkg
	if addBeforePos(p, fn.Decl.Body, gs.Pos()) {
		return true
	}
	if lit != nil {
		return nodeSignals(p, lit.Body, g, sig)
	}
	callee, _ := resolveCall(p, gs.Call)
	node := g.Node(callee)
	return node != nil && sig[node]
}

// reportWaitGroupMisuse reports the two classic sync.WaitGroup mistakes
// in a function literal launched by a go statement:
//
//   - wg.Add inside the spawned goroutine: the scheduler may run Wait
//     before the goroutine's Add, so Wait returns early. Add must happen
//     on the spawning side, before the go statement.
//   - wg.Done as a plain statement instead of deferred: a panic or early
//     return between the work and the Done leaks the WaitGroup and
//     deadlocks Wait.
//
// Nested go statements are skipped (the rule's walk visits them in their
// own right), and so are deferred calls. Named functions that happen to
// run on a goroutine (an accept loop that Adds before spawning handlers)
// are legitimate spawning sides, not misuse.
func reportWaitGroupMisuse(p *lint.Package, lit *ast.FuncLit, report func(pos token.Pos, format string, args ...interface{})) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && isSyncMethod(p.Callee(call), "WaitGroup", "Done") {
				report(call.Pos(), "wg.Done is not deferred; a panic between here and the goroutine's end would deadlock Wait — use defer wg.Done()")
			}
		case *ast.CallExpr:
			if isSyncMethod(p.Callee(n), "WaitGroup", "Add") {
				report(n.Pos(), "wg.Add inside the spawned goroutine races with Wait; call Add before the go statement")
			}
		}
		return true
	})
}

// addBeforePos reports whether a WaitGroup.Add call occurs in body before
// pos — the spawning-side accounting pattern.
func addBeforePos(p *lint.Package, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		if isSyncMethod(p.Callee(call), "WaitGroup", "Add") {
			found = true
		}
		return !found
	})
	return found
}

// lockEdge is one acquisition edge: while holding `held`, `acquired` was
// locked at pos (directly or inside a callee). It doubles as the held-
// stack entry, where only held/heldLabel are meaningful.
type lockEdge struct {
	held, acquired types.Object
	pos            token.Pos
	heldLabel      string
	acquiredLabel  string
}

// lockIdent resolves a Lock/RLock/Unlock/RUnlock call to the identity of
// the mutex it operates on: the field or variable object of the receiver
// expression. All instances of a struct share the field object, which is
// exactly the granularity pairwise ordering needs.
func lockIdent(p *lint.Package, call *ast.CallExpr) (obj types.Object, label string, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", ""
	}
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	if !isSyncMethod(fn, "Mutex", "Lock", "Unlock", "TryLock") &&
		!isSyncMethod(fn, "RWMutex", "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock") {
		return nil, "", ""
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		obj = p.Info.Uses[x]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[x.Sel]
	default:
		return nil, "", ""
	}
	if obj == nil {
		return nil, "", ""
	}
	return obj, types.ExprString(sel.X), fn.Name()
}

// lockSummaries computes, by fixed point, the set of lock objects each
// function may acquire, including through its static callees.
func lockSummaries(g *Graph) map[*Func]map[types.Object]string {
	acq := make(map[*Func]map[types.Object]string)
	add := func(fn *Func, obj types.Object, label string) bool {
		m := acq[fn]
		if m == nil {
			m = make(map[types.Object]string)
			acq[fn] = m
		}
		if _, ok := m[obj]; ok {
			return false
		}
		m[obj] = label
		return true
	}
	for _, fn := range g.Order {
		p := fn.Pkg
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if obj, label, op := lockIdent(p, call); obj != nil && (op == "Lock" || op == "RLock") {
					add(fn, obj, label)
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.Order {
			for _, c := range fn.Calls {
				callee := g.Node(c.Callee)
				if callee == nil {
					continue
				}
				for obj, label := range acq[callee] {
					if add(fn, obj, label) {
						changed = true
					}
				}
			}
		}
	}
	return acq
}

// ruleLockOrder builds the lock-order rule: record every "B acquired
// while holding A" edge — within a function body in source order, and
// through calls to functions whose summaries acquire locks — then report
// pairs observed in both orders anywhere in the module. Two goroutines
// taking such a pair in opposite orders deadlock.
func ruleLockOrder() lint.Rule {
	return lint.Rule{
		Name: "lock-order",
		Doc:  "flag mutex pairs acquired in inconsistent order anywhere in the module (deadlock risk), including through callees",
		RunModule: func(pkgs []*lint.Package, inScope func(*lint.Package) bool, report func(pos token.Pos, format string, args ...interface{})) {
			g := Build(pkgs)
			acq := lockSummaries(g)
			type pair struct{ a, b types.Object }
			edges := make(map[pair]*lockEdge)
			var order []pair
			record := func(e lockEdge) {
				key := pair{e.held, e.acquired}
				if _, ok := edges[key]; !ok {
					edges[key] = &e
					order = append(order, key)
				}
			}
			for _, fn := range g.Order {
				if !inScope(fn.Pkg) {
					continue
				}
				p := fn.Pkg
				var held []lockEdge // labels reused: held stack (object+label)
				ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.DeferStmt:
						return false // deferred unlocks keep the lock held to the end
					case *ast.GoStmt:
						return false // a spawned goroutine is a fresh lock context
					case *ast.CallExpr:
						if obj, label, op := lockIdent(p, n); obj != nil {
							switch op {
							case "Lock", "RLock", "TryLock", "TryRLock":
								for _, h := range held {
									if h.held != obj {
										record(lockEdge{held: h.held, acquired: obj, pos: n.Pos(), heldLabel: h.heldLabel, acquiredLabel: label})
									}
								}
								held = append(held, lockEdge{held: obj, heldLabel: label})
							case "Unlock", "RUnlock":
								for i := len(held) - 1; i >= 0; i-- {
									if held[i].held == obj {
										held = append(held[:i], held[i+1:]...)
										break
									}
								}
							}
							return true
						}
						// A callee that acquires locks while we hold one
						// extends the order relation interprocedurally.
						if len(held) == 0 {
							return true
						}
						if callee, _ := resolveCall(p, n); callee != nil {
							if node := g.Node(callee); node != nil {
								for obj, label := range acq[node] {
									for _, h := range held {
										if h.held != obj {
											record(lockEdge{held: h.held, acquired: obj, pos: n.Pos(), heldLabel: h.heldLabel, acquiredLabel: label})
										}
									}
								}
							}
						}
					}
					return true
				})
			}
			// Deterministic pair scan: report each inverted pair once, at
			// the later of the two edges.
			sort.Slice(order, func(i, j int) bool {
				return g.Fset.Position(edges[order[i]].pos).Offset < g.Fset.Position(edges[order[j]].pos).Offset
			})
			reported := make(map[pair]bool)
			for _, key := range order {
				rev := pair{key.b, key.a}
				if reported[rev] || edges[rev] == nil {
					continue
				}
				reported[key] = true
				e, r := edges[key], edges[rev]
				later, earlier := e, r
				if g.Fset.Position(later.pos).Offset < g.Fset.Position(earlier.pos).Offset {
					later, earlier = earlier, later
				}
				report(later.pos, "lock order inversion: %s acquired while holding %s here, but %s is acquired while holding %s at %s; pick one pairwise order and use it everywhere",
					later.acquiredLabel, later.heldLabel, earlier.acquiredLabel, earlier.heldLabel, g.position(earlier.pos))
			}
		},
	}
}
