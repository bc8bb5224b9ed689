package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// chasePath is the import path of the package whose Grounding and
// Shared types invariants 1 and 3 protect, modelPath the one whose Dict
// overlays invariant 3a protects. Testdata fakes the same paths, so the
// analyzer is matched structurally, never by directory.
const (
	chasePath = "repro/internal/chase"
	modelPath = "repro/internal/model"
)

// Groundingmut enforces DESIGN.md invariants 1 and 3: chase.Grounding
// and chase.Shared values are immutable after construction. Any
// assignment whose target is a field of either — or anything reachable
// through one, like a step slice element, a trigger map entry, a valID
// row or a compiled rule — is flagged, unless it happens inside a
// function in package chase itself that is explicitly marked
// //relacc:grounding-builder (the NewShared/NewGrounding/Extend
// allowlist). The marker is only honoured in the defining package, so
// no other package can ever write a Grounding or a Shared, marker or
// not. The same allowlist guards the entities' value overlays
// (invariant 3a): a call to model.Dict.InternAt anywhere else — a
// reader interning a value — is flagged. InternAt is the one insert a
// Dict has (a base is built whole by NewDict and never written), so
// every call of it writes an entity's overlay; package model itself
// implements it.
var Groundingmut = &analysis.Analyzer{
	Name: "groundingmut",
	Doc: "flags writes to chase.Grounding, chase.Shared or a value overlay outside the construction allowlist\n\n" +
		"Grounding versions are immutable after construction (DESIGN.md\n" +
		"invariant 1), and so is the Shared groundwork every grounding\n" +
		"reads its compiled rules from (invariant 3): every concurrent\n" +
		"checker, pooled engine, grounding and cache layer depends on it.\n" +
		"Construction-time writers in package chase carry the\n" +
		"//relacc:grounding-builder directive; everything else must treat\n" +
		"both as read-only and absorb new evidence via Extend, which\n" +
		"returns a new version. Only those builders insert into an\n" +
		"entity's value overlay (model.Dict.InternAt, invariant 3a);\n" +
		"readers look values up.",
	Run: runGroundingmut,
}

func runGroundingmut(pass *analysis.Pass) (any, error) {
	inChase := pass.Pkg != nil && pass.Pkg.Path() == chasePath
	inModel := pass.Pkg != nil && pass.Pkg.Path() == modelPath
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if inChase && analysis.HasDirective(fd.Doc, "grounding-builder") {
				continue // a declared builder; closures inherit
			}
			checkGroundingWrites(pass, fd)
			if !inModel {
				checkOverlayInserts(pass, fd)
			}
		}
	}
	return nil, nil
}

// checkOverlayInserts flags every call of model.Dict.InternAt in fd.
func checkOverlayInserts(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(pass.TypesInfo, call)
		if fn == nil || fn.Name() != "InternAt" {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			return true
		}
		if n := analysis.NamedOf(sig.Recv().Type()); n != nil && n.Obj().Name() == "Dict" &&
			n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == modelPath {
			pass.Reportf(call.Pos(), "insert into a value overlay (model.Dict.InternAt) outside a //relacc:grounding-builder function: only grounding builders intern an entity's values (invariant 3a); readers use Lookup")
		}
		return true
	})
}

func checkGroundingWrites(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true // := binds new variables; no selector targets
			}
			for _, lhs := range st.Lhs {
				reportGroundingTarget(pass, lhs)
			}
		case *ast.IncDecStmt:
			reportGroundingTarget(pass, st.X)
		}
		return true
	})
}

// reportGroundingTarget flags e when the write target is rooted in a
// value of type chase.Grounding or chase.Shared: a direct field
// (g.steps = ...), an element reachable through one (g.valID[a][i] =
// ..., sh.corrs[a] = append(...)), or the whole value (*g =
// Grounding{...}).
func reportGroundingTarget(pass *analysis.Pass, e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			if name, why, ok := guardedType(pass.TypesInfo, x.X); ok {
				pass.Reportf(x.Pos(), "write to a chase.%s outside a //relacc:grounding-builder function: %s", name, why)
				return
			}
			e = x.X
		case *ast.SelectorExpr:
			if name, why, ok := guardedType(pass.TypesInfo, x.X); ok {
				pass.Reportf(x.Pos(), "write to chase.%s field %s outside a //relacc:grounding-builder function: %s", name, x.Sel.Name, why)
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// guarded maps each chase type the analyzer protects to the invariant
// its diagnostics cite.
var guarded = map[string]string{
	"Grounding": "grounding versions are immutable after construction (invariant 1); use Extend to produce a new version",
	"Shared":    "the shared groundwork is immutable after NewShared, and every grounding reads it concurrently (invariant 3)",
}

// guardedType reports whether e is a chase.Grounding or a chase.Shared
// (through any pointers), with the type's name and its invariant.
func guardedType(info *types.Info, e ast.Expr) (name, why string, ok bool) {
	n := analysis.NamedOf(typeOf(info, e))
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != chasePath {
		return "", "", false
	}
	name = n.Obj().Name()
	why, ok = guarded[name]
	return name, why, ok
}
