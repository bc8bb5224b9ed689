// Package chase is a miniature stand-in for repro/internal/chase: just
// enough structure (a Grounding with step/trigger/valID state, a Shared
// holding compiled rules, builder functions, deduction entry points)
// for the analyzer fixtures to fake the real import path. The real analyzers match packages by path, so
// everything verified here transfers to the real tree.
package chase

import (
	"sync"

	"repro/internal/model"
)

// Grounding mimics the immutable deduction state of the real package.
// Hint is exported so fixtures in other packages can attempt writes;
// the real Grounding has no exported fields, but the analyzer must not
// depend on that.
type Grounding struct {
	Hint    int
	steps   []step
	trig    map[string][]int
	valID   [][]uint32
	version int
	dict    *model.Dict // the entity's value overlay
}

type step struct{ rule, tuple int }

//relacc:grounding-builder
func NewGrounding(n int) *Grounding {
	g := &Grounding{trig: make(map[string][]int)}
	g.valID = make([][]uint32, n) // allowed: declared builder
	g.version = 1
	return g
}

//relacc:grounding-builder
func (g *Grounding) Extend(vals []uint32) *Grounding {
	ng := &Grounding{version: g.version + 1}
	ng.valID = append(append([][]uint32(nil), g.valID...), vals)
	return ng
}

// buildVia pins that closures inside a declared builder inherit the
// allowlist: construction helpers are routinely closures.
//
//relacc:grounding-builder
func buildVia(n int) *Grounding {
	g := &Grounding{}
	fill := func() { g.version = n }
	fill()
	return g
}

// Run, Check and Extend are the deduction entry points the lockscope
// fixtures call.
func (g *Grounding) Run() int { return g.version }

func (g *Grounding) Check() bool { return g.version > 0 }

// depth only reads; no directive needed.
func (g *Grounding) depth() int { return len(g.steps) }

// mutateInPlace is exactly the violation the allowlist exists to catch:
// writes to Grounding state from an undeclared function, even inside
// package chase itself.
func (g *Grounding) mutateInPlace(rule, tuple int) {
	g.steps = append(g.steps, step{rule, tuple}) // want `write to chase.Grounding field steps`
	g.valID[0][0] = 9                            // want `write to chase.Grounding field valID`
	g.trig["k"] = nil                            // want `write to chase.Grounding field trig`
	g.version++                                  // want `write to chase.Grounding field version`
}

// Shared mimics the schema-level groundwork every grounding reads its
// compiled rules from.
type Shared struct {
	form1 []int
	corrs [][]int
	cols  []column
}

// column mimics a master column ranked lazily, once, on first read.
type column struct {
	once   sync.Once
	ranked []int
}

// NewShared is the one writer the allowlist admits.
//
//relacc:grounding-builder
func NewShared(attrs int) *Shared {
	sh := &Shared{corrs: make([][]int, attrs)}
	sh.form1 = append(sh.form1, 1)
	sh.corrs[0] = append(sh.corrs[0], 2)
	return sh
}

// addRule grows the compiled rules after construction — a write every
// concurrent grounding of the Shared would race with.
func (sh *Shared) addRule(attr, r int) {
	sh.corrs[attr] = append(sh.corrs[attr], r) // want `write to chase.Shared field corrs`
	sh.form1 = nil                             // want `write to chase.Shared field form1`
}

// corrCount reads the Shared and writes only a private copy of its
// rules: no write reaches the Shared.
func (sh *Shared) corrCount(attr int) int {
	rules := append([]int(nil), sh.corrs[attr]...)
	rules = append(rules, len(sh.form1))
	return len(rules)
}

// ranked is the once-guarded fill: a write to the Shared after
// construction, admitted because it is a declared builder.
//
//relacc:grounding-builder
func (sh *Shared) ranked(a int) []int {
	sh.cols[a].once.Do(func() { sh.cols[a].ranked = []int{a} })
	return sh.cols[a].ranked
}

// rerank overwrites a ranked column outside any builder, racing every
// grounding that reads it.
func (sh *Shared) rerank(a int) {
	sh.cols[a].ranked = nil // want `write to chase.Shared field cols`
}

// internValue is a builder: it may insert into the entity's overlay.
//
//relacc:grounding-builder
func (g *Grounding) internValue(t *model.Tuple) uint32 { return g.dict.InternAt(t, 0) }

// Dict hands the overlay to readers, as the real Grounding.Dict does.
func (g *Grounding) Dict() *model.Dict { return g.dict }

// lookupOnly reads the overlay: a lookup never inserts.
func (g *Grounding) lookupOnly(v int) (uint32, bool) { return g.dict.Lookup(v) }

// internOnRead inserts into the overlay from a reader, racing every
// Extend of the chain and growing it per read.
func (g *Grounding) internOnRead(t *model.Tuple) uint32 {
	return g.dict.InternAt(t, 0) // want `insert into a value overlay \(model.Dict.InternAt\)`
}

var _ = (*Grounding).depth
var _ = (*Grounding).internValue
var _ = (*Grounding).lookupOnly
var _ = (*Grounding).internOnRead
var _ = (*Grounding).mutateInPlace
var _ = buildVia
var _ = (*Shared).addRule
var _ = (*Shared).corrCount
var _ = (*Shared).ranked
var _ = (*Shared).rerank
