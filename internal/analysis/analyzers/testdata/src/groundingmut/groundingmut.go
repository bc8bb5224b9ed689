// Package groundingmut exercises the cross-package side of the
// groundingmut analyzer: no package other than chase may write a
// Grounding, and the //relacc:grounding-builder directive is only
// honoured inside package chase.
package groundingmut

import "repro/internal/chase"

var g = chase.NewGrounding(1)

// reset overwrites the whole value — the only write shape possible
// from outside with unexported fields, and still a violation.
func reset() {
	*g = chase.Grounding{} // want `write to a chase.Grounding outside`
}

// notABuilderHere carries the builder directive, but outside package
// chase it buys nothing.
//
//relacc:grounding-builder
func notABuilderHere() {
	g.Hint = 1 // want `write to chase.Grounding field Hint`
}

// readsAreFine: reading fields and calling methods never trips the
// analyzer.
func readsAreFine() int {
	h := g.Hint
	return h + g.Run()
}

// rebindIsFine: reassigning a *Grounding variable replaces which
// version it points at — the versioning idiom, not a mutation.
func rebindIsFine() {
	l := g
	l = chase.NewGrounding(2)
	_ = l
}

// readerInterns inserts into an entity's overlay from outside package
// chase, where no directive could ever allow it.
func readerInterns() uint32 {
	return g.Dict().InternAt(nil, 0) // want `insert into a value overlay \(model.Dict.InternAt\)`
}

// readerLooksUp only reads the overlay.
func readerLooksUp() bool {
	_, ok := g.Dict().Lookup(1)
	return ok
}

// lookalike has the same field names but is not chase.Grounding;
// writing it is nobody's business.
type lookalike struct{ Hint int }

func writesLookalike(l *lookalike) {
	l.Hint = 3
}

// suppressed shows the escape hatch: the allow directive silences
// exactly the named analyzer on that line.
func suppressed() {
	g.Hint = 2 //relacc:allow groundingmut
}

var _ = reset
var _ = notABuilderHere
var _ = readsAreFine
var _ = rebindIsFine
var _ = writesLookalike
var _ = suppressed
var _ = readerInterns
var _ = readerLooksUp
