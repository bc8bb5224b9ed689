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
// return the first column j whose every other row i has i ⪯a j.
func (s *Set) refMax(a int) int {
	n := s.n
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
			if !s.Has(a, i, j) {
				continue outer
			}
		}
		return j
	}
	return -1
}

// refLen counts non-reflexive derived pairs by enumerating them.
func (s *Set) refLen(a int) int {
	c := 0
	s.visitPairs(a, func(_, _ int) { c++ })
	return c
}

// refTransitiveOK is the O(n³) probe-based closure check.
func (s *Set) refTransitiveOK(a int) bool {
	n := s.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || !s.Has(a, i, j) {
				continue
			}
			for k := 0; k < n; k++ {
				if s.Has(a, j, k) && !s.Has(a, i, k) {
					return false
				}
			}
		}
	}
	return true
}

// refAdd is the probe-based closure insertion: build the successor mask
// of j, then OR it into row i and into every row p found by probing all
// n rows for p ⪯a i. It allocates its own buffers so a test can drive
// refAdd and Add against sets that share nothing.
func (s *Set) refAdd(a, i, j int) []Pair {
	if s.Has(a, i, j) {
		return nil
	}
	w := s.w
	mask := make([]uint64, w)
	copy(mask, s.row(a, j))
	mask[j>>6] |= 1 << (uint(j) & 63)

	var added []Pair
	apply := func(p int) {
		row := s.row(a, p)
		for wi := 0; wi < w; wi++ {
			diff := mask[wi] &^ row[wi]
			if diff == 0 {
				continue
			}
			row[wi] |= diff
			markRow(s.dirtyOf(a), p)
			for diff != 0 {
				b := diff & -diff
				added = append(added, Pair{From: p, To: wi<<6 + bits.TrailingZeros64(b)})
				diff &= diff - 1
			}
		}
	}
	apply(i)
	for p := 0; p < s.n; p++ {
		if p != i && s.Has(a, p, i) {
			apply(p)
		}
	}
	return added
}

// refAddAllTo32 is the per-pair ϕ8 bulk insertion: accumulate the
// group's successor mask, then OR it into every row, visiting each new
// pair. Like refAdd it allocates its own mask buffer.
func (s *Set) refAddAllTo32(a int, group []uint32, visit func(from, to int)) {
	if len(group) == 0 {
		return
	}
	w := s.w
	mask := make([]uint64, w)
	for _, g := range group {
		row := s.row(a, int(g))
		for wi := 0; wi < w; wi++ {
			mask[wi] |= row[wi]
		}
		mask[g>>6] |= 1 << (uint(g) & 63)
	}
	for p := 0; p < s.n; p++ {
		row := s.row(a, p)
		for wi := 0; wi < w; wi++ {
			diff := mask[wi] &^ row[wi]
			if diff == 0 {
				continue
			}
			row[wi] |= diff
			markRow(s.dirtyOf(a), p)
			for diff != 0 {
				b := diff & -diff
				visit(p, wi<<6+bits.TrailingZeros64(b))
				diff &= diff - 1
			}
		}
	}
}
