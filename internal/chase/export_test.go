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
