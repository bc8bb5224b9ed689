package chase

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
		g.verdicts.put(append(make([]byte, 4*g.nattr), byte(i), byte(i>>8), byte(i>>16)), verdictEntry{})
	}
}
