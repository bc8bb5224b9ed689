// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis surface that relacc-lint's
// analyzers are written against.
//
// Why not the real thing: this repository builds in hermetic,
// network-isolated environments (CI included), so it deliberately has
// no external module requirements — go.mod must stay dependency-free.
// The subset here mirrors the upstream API shape (Analyzer, Pass,
// Diagnostic, Reportf, an analysistest-style harness) closely enough
// that each analyzer's Run function would compile against
// golang.org/x/tools/go/analysis with only import-path changes, so the
// suite can migrate to the real driver (and pick up stock passes like
// nilness and unusedwrite, which need x/tools' SSA and are therefore
// gated out of this offline build) the day a vendored copy is
// available. What vet already provides — copylocks, atomic argument
// misuse, printf — is NOT duplicated here; CI runs `go vet` alongside
// relacc-lint.
//
// The analyzers themselves live in internal/analysis/analyzers; the
// source loader that stands in for go/packages lives in
// internal/analysis/load; cmd/relacc-lint is the multichecker binary.
//
// # Directives
//
// Invariant exceptions are declared in the source they apply to, not in
// analyzer code, via magic comments (grep-able, reviewed like code):
//
//	//relacc:grounding-builder
//	    On a function declaration in package chase: the function is
//	    part of Grounding construction and may write Grounding fields.
//	//relacc:lock-held-over-deduction
//	    On a mutex struct field: holding this lock across deduction is
//	    part of the design (e.g. the per-entity lock that serialises
//	    extend+commit+re-deduce).
//	//relacc:allow <analyzer> [<analyzer>...]
//	    On any line: suppress the named analyzers' diagnostics for that
//	    line. The escape hatch of last resort; every use should carry a
//	    justification in the surrounding comment.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static-analysis pass: a named, documented
// check run over one type-checked package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -only flags and
	// //relacc:allow directives. Lower-case, no spaces.
	Name string

	// Doc is the one-paragraph description printed by relacc-lint -list.
	// Its first line is the summary.
	Doc string

	// Run applies the analyzer to one package. Diagnostics go through
	// pass.Report/Reportf; the result value is unused by this driver
	// (kept for upstream API shape).
	Run func(*Pass) (any, error)
}

// A Pass provides one analyzer run with a single type-checked package
// and a sink for diagnostics — the same contract as
// golang.org/x/tools/go/analysis.Pass, minus facts and pass
// dependencies (no analyzer here needs either).
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver wires suppression
	// (//relacc:allow) and collection in here.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// directivePrefix introduces every relacc-lint source directive.
const directivePrefix = "//relacc:"

// HasDirective reports whether the comment group carries the named
// directive (e.g. name "grounding-builder" matches the comment line
// "//relacc:grounding-builder", with optional trailing prose).
func HasDirective(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text, ok := strings.CutPrefix(c.Text, directivePrefix)
		if !ok {
			continue
		}
		text, _, _ = strings.Cut(text, " ")
		if strings.TrimSpace(text) == name {
			return true
		}
	}
	return false
}

// AllowedLines returns, per file line, the set of analyzer names whose
// diagnostics an //relacc:allow directive suppresses on that line. The
// driver applies this to every analyzer's output so the escape hatch
// behaves uniformly.
func AllowedLines(fset *token.FileSet, files []*ast.File) map[LineKey]map[string]bool {
	out := make(map[LineKey]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix+"allow")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				key := LineKey{File: pos.Filename, Line: pos.Line}
				set := out[key]
				if set == nil {
					set = make(map[string]bool)
					out[key] = set
				}
				for _, name := range strings.Fields(rest) {
					set[name] = true
				}
			}
		}
	}
	return out
}

// LineKey addresses one line of one file, for suppression lookups.
type LineKey struct {
	File string
	Line int
}

// IsNamedType reports whether t (after stripping pointers) is the named
// type pkgPath.name. Generic instantiations match their origin (so
// atomic.Pointer[T] matches ("sync/atomic", "Pointer")).
func IsNamedType(t types.Type, pkgPath, name string) bool {
	n := NamedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// NamedOf strips pointers (and aliases) from t and returns the
// underlying named type, or nil.
func NamedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	if n != nil {
		if orig := n.Origin(); orig != nil {
			return orig
		}
	}
	return n
}
