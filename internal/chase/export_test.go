package chase

import (
	"slices"

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
	sh := &Shared{schema: g.schema, rankAttrs: slices.Clip(g.rankAttrs)}
	cp := sh.compileCmp(&p)
	if cp.kind == cmpRank && int(cp.slot) >= len(g.rankAttrs) {
		panic("chase: EvalCmp on an attribute g's rules do not rank")
	}
	return g.evalCmpOnPair(&cp, int32(i), int32(j))
}

// Ranked reports whether g ranked attribute a's values for its guards.
func Ranked(g *Grounding, a int) bool {
	s := slices.Index(g.rankAttrs, int32(a))
	return s >= 0 && g.rankOK[s] != 0
}
