package chase

import (
	"slices"

	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/rule"
)

// RankedColumns lists, in attribute order, the entity attributes whose
// master column has been ranked. Call it only while no search runs.
func (sh *Shared) RankedColumns() []int {
	var out []int
	for a := range sh.master {
		if sh.master[a].ranked != nil {
			out = append(out, a)
		}
	}
	return out
}

// VerdictCap is the bound on one version's verdict map.
const VerdictCap = verdictCap

// FillVerdictCache fills g's verdict map until free slots are left,
// with keys no template packs to: 4·nattr+3 bytes, where every
// template key is 4·nattr. Call it before any check on g, so that a
// test can drive a version whose map is full.
func FillVerdictCache(g *Grounding, free int) {
	for i := 0; i < verdictCap-free; i++ {
		g.verdicts.put(append(make([]byte, 4*g.nattr), byte(i), byte(i>>8), byte(i>>16)), "")
	}
}

// EvalCmp compiles the comparison p as NewShared compiles a rule's
// guard for g — an ordering of two tuples on one attribute takes that
// attribute's rank slot, which g's rules must have opened — and
// evaluates it on the tuple pair (i, j), standing for (t1, t2).
func EvalCmp(g *Grounding, p rule.Pred, i, j int) bool {
	sh := &Shared{schema: g.sh.schema, rankAttrs: slices.Clip(g.sh.rankAttrs)}
	cp := sh.compileCmp(&p)
	if cp.kind == cmpRank && int(cp.slot) >= len(g.sh.rankAttrs) {
		panic("chase: EvalCmp on an attribute g's rules do not rank")
	}
	return g.evalCmpOnPair(&cp, int32(i), int32(j))
}

// Ranked reports whether g ranked attribute a's values for its guards.
func Ranked(g *Grounding, a int) bool {
	s := slices.Index(g.sh.rankAttrs, int32(a))
	return s >= 0 && g.rankOK[s] != 0
}

// Terminal is a run's Result beside the terminal orders that Run does
// not return.
type Terminal struct {
	*Result
	Orders *order.Set
}

// RunTerminal runs template on g as Run does and also returns the
// run's terminal orders (nil unless it is Church-Rosser), for the tests
// that compare them.
func RunTerminal(g *Grounding, template *model.Tuple) Terminal {
	res, orders := g.run(template)
	return Terminal{res, orders}
}

// Checker is a version's held checker, for the tests that drive one
// directly instead of borrowing one through Grounding.Check.
type Checker = checker

// NewChecker returns a new held checker over g.
func NewChecker(g *Grounding) *Checker { return g.newChecker() }

// Check reports whether the specification revised with template is
// Church-Rosser.
func (c *Checker) Check(template *model.Tuple) bool { return c.conflict(template) == "" }

// CheckConflict returns the check's first invalid step, "" when the
// revised specification is Church-Rosser.
func (c *Checker) CheckConflict(template *model.Tuple) string { return c.conflict(template) }
