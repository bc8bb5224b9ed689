package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Lockscope enforces DESIGN.md invariant 5: no routing/registry lock is
// held across deduction. It flags any call that (directly, or
// transitively through same-package functions) reaches a deduction
// entry point — Grounding.Run/Check/Extend, Checker.Check*, grounding
// construction, the top-k searches, the Session and Updater entry
// points — made while a sync.Mutex or sync.RWMutex acquired in the
// same function is still held.
//
// Locks that are DESIGNED to be held across deduction (the per-entity
// lock serialising extend+commit+re-deduce, the updater's quiesce
// gate) are declared at their field with
// //relacc:lock-held-over-deduction; the directive is what makes the
// exception reviewable instead of implicit.
//
// The tracking is syntactic and flow-insensitive within a function
// body (source order approximates execution order; an Unlock anywhere
// after the Lock ends the critical section for the scan, a deferred
// Unlock keeps it held to the end). That makes the analyzer
// conservative about clever lock hand-offs and blind to cross-function
// lock ownership — the race tests keep covering those — but exhaustive
// for the shape every real regression so far has had: lock, call
// something expensive, unlock.
var Lockscope = &analysis.Analyzer{
	Name: "lockscope",
	Doc: "flags deduction entry points called while a mutex is held\n\n" +
		"Deduction (chase runs, candidate checks, top-k searches,\n" +
		"grounding construction) can take milliseconds; holding a\n" +
		"routing or registry lock across it serialises the store\n" +
		"(DESIGN.md invariant 5). Exempt a lock whose design requires\n" +
		"it with //relacc:lock-held-over-deduction on the field.",
	Run: runLockscope,
}

// entryPattern matches deduction entry points by package path, receiver
// type name ("" for plain functions) and function name (trailing *
// wildcard allowed).
type entryPattern struct{ pkg, recv, name string }

var deductionEntries = []entryPattern{
	{chasePath, "Grounding", "Run"},
	{chasePath, "Grounding", "Check"},
	{chasePath, "Grounding", "Extend"},
	{chasePath, "Checker", "Check"},
	{chasePath, "Checker", "CheckConflict"},
	{chasePath, "Shared", "NewGrounding"},
	{chasePath, "", "NewGrounding"},
	{chasePath, "", "Deduce"},
	{"repro/internal/topk", "", "TopK*"},
	{"repro/internal/topk", "", "RankJoin*"},
	{"repro/internal/framework", "Algorithm", "Search"},
	{"repro/internal/core", "Session", "Deduce*"},
	{"repro/internal/core", "Session", "Check*"},
	{"repro/internal/core", "Session", "TopK*"},
	{"repro/internal/core", "Session", "AddTuples"},
	{"repro/internal/pipeline", "Updater", "Apply"},
	{"repro/internal/pipeline", "Updater", "Replay"},
	{"repro/internal/pipeline", "Updater", "Query"},
	{"repro/internal/pipeline", "Updater", "Snapshot"},
	{"repro/internal/pipeline", "", "Run*"},
	{"repro/internal/pipeline", "", "Stream*"},
}

// isDeductionEntry reports whether fn matches a deduction entry
// pattern.
func isDeductionEntry(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := analysis.NamedOf(sig.Recv().Type()); n != nil {
			recv = n.Obj().Name()
		}
	}
	for _, e := range deductionEntries {
		if e.pkg != pkg.Path() || e.recv != recv {
			continue
		}
		if pat, ok := strings.CutSuffix(e.name, "*"); ok {
			if strings.HasPrefix(fn.Name(), pat) {
				return true
			}
		} else if e.name == fn.Name() {
			return true
		}
	}
	return false
}

func runLockscope(pass *analysis.Pass) (any, error) {
	var decls []*ast.FuncDecl
	declOf := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					declOf[fn] = fd
				}
			}
		}
	}

	// reaches: same-package functions from which a deduction entry point
	// is statically reachable (direct calls, then a fixpoint over
	// same-package call edges). Calling one of these under a lock is as
	// bad as calling the entry point itself.
	reaches := make(map[*types.Func]bool)
	callees := make(map[*types.Func][]*types.Func)
	for fn, fd := range declOf {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			if isDeductionEntry(callee) {
				reaches[fn] = true
			} else if _, samePkg := declOf[callee]; samePkg {
				callees[fn] = append(callees[fn], callee)
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for fn, cs := range callees {
			if reaches[fn] {
				continue
			}
			for _, c := range cs {
				if reaches[c] {
					reaches[fn] = true
					changed = true
					break
				}
			}
		}
	}

	exempt := directiveFields(pass, "lock-held-over-deduction")
	for _, fd := range decls {
		checkLockScope(pass, fd, reaches, exempt)
	}
	return nil, nil
}

// heldLock is one lock the linear scan currently considers held.
type heldLock struct {
	expr   string
	exempt bool
}

func checkLockScope(pass *analysis.Pass, fd *ast.FuncDecl, reaches map[*types.Func]bool, exempt map[*types.Var]bool) {
	// Deferred calls run at return, not where they appear: a deferred
	// Unlock must not end the critical section for the scan.
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})

	var held []heldLock
	find := func(expr string) int {
		for i, h := range held {
			if h.expr == expr {
				return i
			}
		}
		return -1
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := mutexOpOf(pass.TypesInfo, call); ok {
			key := types.ExprString(op.recv)
			switch op.name {
			case "Lock", "RLock":
				if find(key) < 0 {
					held = append(held, heldLock{
						expr:   key,
						exempt: exempt[fieldVarOf(pass.TypesInfo, op.recv)],
					})
				}
			case "Unlock", "RUnlock":
				if deferred[call] {
					break // released only at return; still held below
				}
				if i := find(key); i >= 0 {
					held = append(held[:i], held[i+1:]...)
				}
			}
			return true
		}
		callee := calleeOf(pass.TypesInfo, call)
		if callee == nil || !(isDeductionEntry(callee) || reaches[callee]) {
			return true
		}
		for _, h := range held {
			if h.exempt {
				continue
			}
			pass.Reportf(call.Pos(),
				"%s is still held at this call to %s, which performs deduction: no lock across deduction (invariant 5); release the lock first or declare the field //relacc:lock-held-over-deduction",
				h.expr, callee.Name())
			break // one report per call site is enough
		}
		return true
	})
}
