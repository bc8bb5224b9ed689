package analyzers

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Poolescape enforces the pooled-checker ownership rule (DESIGN.md
// invariant 4 family): a value taken from a sync.Pool is owned by the
// taking function until it is Put back, and must not outlive that
// window. Within each function it tracks variables bound to a
// (sync.Pool).Get() result — through the usual type assertion, its
// comma-ok form (`v, ok :=` and `v, _ :=`) and simple aliases — and
// flags any use that lets the value escape before Put: returning it,
// storing it into a field, map, slice, pointer target or package
// variable, sending it on a channel, or appending it to a slice. No
// function is exempt, accessors included: a Put obligation handed to a
// caller is one the analysis can no longer see discharged.
//
// The analysis is per-function and syntactic: a Get result handed to
// another function is not followed (passing a pooled value down a call
// is borrowing, not escaping), and once a Put(v) releases v, later
// uses of v are not tracked — vet-style use-after-Put is out of scope.
var Poolescape = &analysis.Analyzer{
	Name: "poolescape",
	Doc: "flags sync.Pool values that escape before being returned to the pool\n\n" +
		"A pooled value stored to the heap, returned or sent on a channel\n" +
		"can be handed to Pool.Get on another goroutine while still\n" +
		"referenced — aliased mutable state with no lock. Keep pooled\n" +
		"values function-scoped: Get, use, Put.",
	Run: runPoolescape,
}

func runPoolescape(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolEscapes(pass, fd)
		}
	}
	return nil, nil
}

// isPoolGetCall reports whether e is (sync.Pool).Get(), possibly
// wrapped in a type assertion — `p.pool.Get().(*Checker)`.
func isPoolGetCall(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeOf(info, call)
	return fn != nil && fn.Name() == "Get" &&
		fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
		recvIsSyncPool(fn)
}

func recvIsSyncPool(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return analysis.IsNamedType(sig.Recv().Type(), "sync", "Pool")
}

func checkPoolEscapes(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// pooled: variables currently holding an un-Put pool value, in
	// source order (the same linear approximation lockscope uses).
	pooled := make(map[*types.Var]bool)
	varOf := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if v, ok := info.Uses[id].(*types.Var); ok {
			return v
		}
		v, _ := info.Defs[id].(*types.Var)
		return v
	}
	isPooledExpr := func(e ast.Expr) bool {
		if isPoolGetCall(info, e) {
			return true // escape straight from the Get call itself
		}
		v := varOf(e)
		return v != nil && pooled[v]
	}
	report := func(e ast.Expr, how string) {
		pass.Reportf(e.Pos(),
			"sync.Pool value escapes before Put (%s): once another goroutine Gets it, both sides mutate the same object with no lock; keep pooled values function-scoped", how)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				var rhs ast.Expr
				switch {
				case len(st.Rhs) == len(st.Lhs):
					rhs = st.Rhs[i]
				case i == 0 && len(st.Rhs) == 1:
					// v, ok := p.Get().(*T): the comma-ok assertion
					// binds the pooled value to the first variable.
					rhs = st.Rhs[0]
				}
				lv := varOf(lhs)
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
					continue // discarding is not an escape (nor a Put)
				}
				if rhs != nil && isPooledExpr(rhs) {
					// Binding or aliasing a pooled value: to a plain local
					// it propagates tracking; to anything with memory shape
					// (field, element, deref, global) it escapes.
					switch {
					case lv != nil && !isGlobal(lv):
						pooled[lv] = true
					default:
						report(rhs, "stored to a field, element or package variable")
					}
					continue
				}
				// Pooled variable overwritten with something else: the
				// obligation moved on; stop tracking under this name.
				if lv != nil && rhs != nil {
					delete(pooled, lv)
				}
			}
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if isPooledExpr(r) {
					report(r, "returned to the caller")
				}
			}
		case *ast.SendStmt:
			if isPooledExpr(st.Value) {
				report(st.Value, "sent on a channel")
			}
		case *ast.CallExpr:
			fn := calleeOf(info, st)
			if fn != nil && fn.Name() == "Put" {
				// Any Put(v) — sync.Pool's or a wrapper's — discharges the
				// obligation for v.
				for _, arg := range st.Args {
					if v := varOf(arg); v != nil {
						delete(pooled, v)
					}
				}
				return true
			}
			// append(dst, v): v outlives the call inside dst.
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && id.Name == "append" {
				for _, arg := range st.Args[1:] {
					if isPooledExpr(arg) {
						report(arg, "appended to a slice")
					}
				}
			}
		}
		return true
	})
}

// isGlobal reports whether v is a package-level variable.
func isGlobal(v *types.Var) bool {
	return v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
