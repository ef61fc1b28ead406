package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ruleUncheckedError flags call statements that silently discard an error
// result in library code. Terminal output through fmt.Print*/os.Stdout and
// writes to never-failing in-memory buffers are exempt; everything else
// must be handled or explicitly assigned to _.
func ruleUncheckedError() Rule {
	return Rule{
		Name: "unchecked-error",
		Doc:  "flag call statements that discard an error result; handle it or assign to _ explicitly",
		Run: func(p *Package, report func(pos token.Pos, format string, args ...interface{})) {
			inspect(p, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok || !returnsError(p, call) || errorExempt(p, call) {
					return true
				}
				report(call.Pos(), "error return of %s is discarded; handle it or assign to _ explicitly", calleeName(p, call))
				return true
			})
		},
	}
}

func returnsError(p *Package, call *ast.CallExpr) bool {
	t := p.Info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// errorExempt reports whether the call's error is conventionally
// uncheckable: terminal output, or writes to in-memory buffers whose
// Write* methods are documented to never fail.
func errorExempt(p *Package, call *ast.CallExpr) bool {
	if fn := p.Callee(call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		name := fn.Name()
		if strings.HasPrefix(name, "Print") {
			return true // process stdout: best-effort by convention
		}
		if strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
			return isStdStream(p, call.Args[0]) || neverFailWriter(p.Info.TypeOf(call.Args[0]))
		}
	}
	// Methods on in-memory buffers (bytes.Buffer, strings.Builder) return
	// a vestigial nil error.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, isMethod := p.Info.Selections[sel]; isMethod && neverFailWriter(s.Recv()) {
			return true
		}
	}
	return false
}

// isStdStream reports whether e denotes os.Stdout or os.Stderr.
func isStdStream(p *Package, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := p.Info.Uses[sel.Sel].(*types.Var)
	return ok && obj.Pkg() != nil && obj.Pkg().Path() == "os" &&
		(obj.Name() == "Stdout" || obj.Name() == "Stderr")
}

func neverFailWriter(t types.Type) bool {
	switch types.TypeString(t, nil) {
	case "*bytes.Buffer", "bytes.Buffer", "*strings.Builder", "strings.Builder":
		return true
	}
	return false
}

func calleeName(p *Package, call *ast.CallExpr) string {
	if fn := p.Callee(call); fn != nil {
		return fn.Name()
	}
	return "call"
}

// ruleFmtPrint forbids writing to process stdout/stderr from internal
// library packages: libraries return values (or take an io.Writer);
// terminal output is the CLI layer's job, via cliutil.
func ruleFmtPrint() Rule {
	return Rule{
		Name: "fmt-print",
		Doc:  "forbid fmt.Print*/os.Stdout writes in internal library packages; return values or go through cliutil",
		Run: func(p *Package, report func(pos token.Pos, format string, args ...interface{})) {
			inspect(p, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := p.Callee(call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
					return true
				}
				name := fn.Name()
				switch {
				case name == "Print" || name == "Printf" || name == "Println":
					report(call.Pos(), "fmt.%s writes to process stdout from library code; return values or write through an injected io.Writer", name)
				case strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 && isStdStream(p, call.Args[0]):
					report(call.Pos(), "fmt.%s to a process std stream from library code; write through an injected io.Writer", name)
				}
				return true
			})
		},
	}
}
