package order

import "math/bits"

// This file retains the naive bit-loop kernels the word-parallel
// implementations in order.go replaced. They are the differential
// reference for kernel_test.go and FuzzRelationOps: every word-parallel
// kernel must stay bit-for-bit equivalent to its reference here (the
// DESIGN.md "order kernel" invariant — the reference is kept and
// tested, not deleted). They are test code, so the library never ships
// them; they favour being obviously faithful to the Section 2 semantics
// over speed.

// refMax is the O(n²) probe-based Max: scan columns left to right and
// return the first column j whose every other row i has i ⪯ j.
func (r *Relation) refMax() int {
	n := r.n
	if n == 0 {
		return -1
	}
	if n == 1 {
		return 0
	}
outer:
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			if !r.Has(i, j) {
				continue outer
			}
		}
		return j
	}
	return -1
}

// refLen counts non-reflexive derived pairs by enumerating them.
func (r *Relation) refLen() int {
	c := 0
	r.VisitPairs(func(_, _ int) { c++ })
	return c
}

// refTransitiveOK is the O(n³) probe-based closure check.
func (r *Relation) refTransitiveOK() bool {
	n := r.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || !r.Has(i, j) {
				continue
			}
			for k := 0; k < n; k++ {
				if r.Has(j, k) && !r.Has(i, k) {
					return false
				}
			}
		}
	}
	return true
}

// refAdd is the probe-based closure insertion: build the successor mask
// of j, then OR it into row i and into every row p found by probing all
// n rows for p ⪯ i. It allocates its own buffers so a test can drive
// refAdd and Add against relations that share nothing.
func (r *Relation) refAdd(i, j int) []Pair {
	if r.Has(i, j) {
		return nil
	}
	w := r.w
	mask := make([]uint64, w)
	copy(mask, r.row(j))
	mask[j>>6] |= 1 << (uint(j) & 63)

	var added []Pair
	apply := func(p int) {
		row := r.row(p)
		for wi := 0; wi < w; wi++ {
			diff := mask[wi] &^ row[wi]
			if diff == 0 {
				continue
			}
			row[wi] |= diff
			r.markRow(p)
			for diff != 0 {
				b := diff & -diff
				added = append(added, Pair{From: p, To: wi<<6 + bits.TrailingZeros64(b)})
				diff &= diff - 1
			}
		}
	}
	apply(i)
	for p := 0; p < r.n; p++ {
		if p != i && r.Has(p, i) {
			apply(p)
		}
	}
	return added
}

// refAddAllTo32 is the per-pair ϕ8 bulk insertion: accumulate the
// group's successor mask, then OR it into every row, visiting each new
// pair. Like refAdd it allocates its own mask buffer.
func (r *Relation) refAddAllTo32(group []uint32, visit func(from, to int)) {
	if len(group) == 0 {
		return
	}
	w := r.w
	mask := make([]uint64, w)
	for _, g := range group {
		row := r.row(int(g))
		for wi := 0; wi < w; wi++ {
			mask[wi] |= row[wi]
		}
		mask[g>>6] |= 1 << (uint(g) & 63)
	}
	for p := 0; p < r.n; p++ {
		row := r.row(p)
		for wi := 0; wi < w; wi++ {
			diff := mask[wi] &^ row[wi]
			if diff == 0 {
				continue
			}
			row[wi] |= diff
			r.markRow(p)
			for diff != 0 {
				b := diff & -diff
				visit(p, wi<<6+bits.TrailingZeros64(b))
				diff &= diff - 1
			}
		}
	}
}
