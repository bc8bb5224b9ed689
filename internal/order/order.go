// Package order implements the accuracy orders of Section 2 of the
// paper: for each attribute Ai, a binary relation ⪯Ai over the tuples of
// an entity instance, kept transitively closed as the chase extends it
// one pair at a time.
//
// The relation stored here is the weak order ⪯Ai ("t1[Ai] = t2[Ai] or
// t1 ≺Ai t2"). The strict order ≺Ai is derived: t1 ≺Ai t2 iff
// t1 ⪯Ai t2 and t1[Ai] ≠ t2[Ai]. A relation becomes *conflicted* — and
// the chase step that caused it invalid — when t1 ⪯ t2 and t2 ⪯ t1 both
// hold for tuples with different Ai values.
//
// Relations are dense bitset matrices: Ie is small in practice (the
// paper reports instances of 1–90 tuples on real data and up to 1500 on
// synthetic data), and bitset rows make transitive-closure maintenance,
// bulk insertion and cloning cheap. A Set holds the relations of every
// attribute in one row slab behind one header, so a relation costs only
// its bits: every query and kernel takes the attribute it works on.
//
// # Kernels
//
// The hot kernels operate on whole 64-bit words, not single bits: Max
// is an AND-accumulation over rows, Len a popcount sweep, TransitiveOK
// a word-subset check per derived pair, and the closure-restoring
// insertions (AddDiffs, AddAllToWords) hand newly derived pairs back as
// per-row word masks so callers — the chase engine — consume them
// word-at-a-time. Every
// word-parallel kernel is bit-for-bit equivalent to the naive bit-loop
// reference retained in reference_test.go; kernel_test.go enforces the
// equivalence differentially.
package order

import (
	"math/bits"
	"slices"
)

// Pair is an ordered pair (From ⪯ To) of tuple indices.
type Pair struct{ From, To int }

// Set is the collection of accuracy orders for all attributes of a
// schema, as in the accuracy instance D = (Ie, ⪯A1, ..., ⪯An): one
// weak order per attribute over tuples 0..n-1, each kept transitively
// closed. Its header is the same size however many attributes it has:
// the size, the word count, one row slab holding every attribute's
// matrix, an optional dirty bitset and the kernels' scratch. Row i of
// attribute a is slot a·n+i of the slab, w words long; bit j of it
// means i ⪯a j.
type Set struct {
	n     int
	w     int // 64-bit words per row
	attrs int
	rows  []uint64
	// dirty, when non-nil, is a bitset over (attribute, row) slots
	// recording which rows have been written since the last ResetFrom;
	// attribute a's rows take words [a·dw, (a+1)·dw) of it, dw words per
	// attribute (dirtyOf). It lets a set that started as a snapshot of a
	// base set restore the base state by rewriting only the rows it
	// diverged on — the snapshot-restore scheme behind the chase's held
	// checkers.
	dirty []uint64
	// sc is allocated by the first insertion, so a clone that is only
	// read costs its rows and header alone.
	sc *scratch
}

// scratch holds the reusable buffers of the insertion kernels: the
// one-row mask, AddDiffs' live-word list, and the backing arrays of
// Add's and AddDiffs' results. They make the mutation hot path
// allocation-free on a long-lived set, whose attributes are never
// written concurrently.
type scratch struct {
	mask  []uint64
	mw    []int32
	pairs []Pair
	diffs []WordDiff
}

// WordDiff is one word of newly derived pairs: for each set bit b of
// Bits, the pair Row ⪯ (Word<<6)+b was just derived. The insertion
// kernels hand derivations back in this shape so the chase engine can
// consume them word-at-a-time instead of pair-at-a-time.
type WordDiff struct {
	Row  int32
	Word int32
	Bits uint64
}

// words returns the number of 64-bit words in a row over n tuples; an
// empty relation keeps one, so row arithmetic never divides by zero.
func words(n int) int {
	if n == 0 {
		return 1
	}
	return (n + 63) >> 6
}

// NewSet creates empty relations for attrs attributes over n tuples.
func NewSet(attrs, n int) *Set {
	w := words(n)
	return &Set{n: n, w: w, attrs: attrs, rows: make([]uint64, attrs*n*w)}
}

// Attrs returns the number of attributes.
func (s *Set) Attrs() int { return s.attrs }

// Size returns the number of tuples each relation ranges over.
func (s *Set) Size() int { return s.n }

// matrix returns attribute a's n rows of w words.
func (s *Set) matrix(a int) []uint64 {
	stride := s.n * s.w
	return s.rows[a*stride : (a+1)*stride]
}

// row returns the slice of words forming row i of attribute a.
func (s *Set) row(a, i int) []uint64 {
	off := (a*s.n + i) * s.w
	return s.rows[off : off+s.w]
}

// Has reports whether i ⪯a j has been derived.
func (s *Set) Has(a, i, j int) bool { return s.Attr(a).Has(i, j) }

// Relation is a read-only view of one attribute's order, computed on
// the stack by Set.Attr; the set stores nothing per attribute. A loop
// that tests many pairs of one attribute takes the view once, so each
// test costs one row offset instead of an attribute offset as well.
type Relation struct {
	rows []uint64 // the attribute's n rows of w words
	w    int
}

// Attr returns a read-only view of attribute a's order. It is valid
// until the set is extended; insertions show through it.
func (s *Set) Attr(a int) Relation { return Relation{rows: s.matrix(a), w: s.w} }

// Has reports whether i ⪯ j has been derived.
func (r Relation) Has(i, j int) bool {
	return r.rows[i*r.w+(j>>6)]&(1<<(uint(j)&63)) != 0
}

// Word returns word wi of row i of attribute a: bit b is set when
// i ⪯a (wi<<6)+b has been derived.
func (s *Set) Word(a, i, wi int) uint64 { return s.rows[(a*s.n+i)*s.w+wi] }

// Mutual reports whether both i ⪯a j and j ⪯a i hold.
func (s *Set) Mutual(a, i, j int) bool {
	return s.Has(a, i, j) && s.Has(a, j, i)
}

// dirtyOf returns attribute a's words of the dirty bitset, bit i
// standing for row i, or nil when the set is untracked.
func (s *Set) dirtyOf(a int) []uint64 {
	if s.dirty == nil {
		return nil
	}
	dw := (s.n + 63) >> 6
	return s.dirty[a*dw : (a+1)*dw]
}

// markRow records in dirty, attribute a's dirty words (dirtyOf), that
// row i diverged from the snapshot the set was cloned from; a no-op on
// untracked sets.
func markRow(dirty []uint64, i int) {
	if dirty != nil {
		dirty[i>>6] |= 1 << (uint(i) & 63)
	}
}

// mask returns the scratch mask, zeroed and sized to one row.
func (s *Set) mask() []uint64 {
	if s.sc == nil {
		s.sc = new(scratch)
	}
	sc := s.sc
	if cap(sc.mask) < s.w {
		sc.mask = make([]uint64, s.w)
	} else {
		sc.mask = sc.mask[:s.w]
		clear(sc.mask)
	}
	return sc.mask
}

// Add inserts the pair i ⪯a j and restores transitive closure. It
// returns the pairs that are newly derived, including (i, j) itself;
// adding an already-derived pair returns nil. Reflexive pairs (i == j)
// are permitted and harmless. Conflict detection is the caller's
// concern: inspect the returned pairs with Mutual. The returned slice is
// backed by the set's scratch and only valid until the next insertion.
func (s *Set) Add(a, i, j int) []Pair {
	diffs := s.AddDiffs(a, i, j)
	if len(diffs) == 0 {
		return nil
	}
	added := s.sc.pairs[:0]
	for _, d := range diffs {
		base := int(d.Word) << 6
		for bs := d.Bits; bs != 0; bs &= bs - 1 {
			added = append(added, Pair{From: int(d.Row), To: base + bits.TrailingZeros64(bs)})
		}
	}
	s.sc.pairs = added
	return added
}

// AddDiffs is the word-diff core of Add: it inserts i ⪯a j, fully
// restores transitive closure, and returns every newly derived pair as
// per-row word diffs — one WordDiff per (row, word) whose bits were
// newly set, in exactly the order Add reports pairs (row i first, then
// the predecessors of i ascending; words ascending within a row). An
// already-derived pair returns nil. The matrix is always fully updated
// before AddDiffs returns, so a caller that stops consuming the diffs
// early (the engine, on conflict) leaves the relation closed. The
// returned slice is backed by the set's scratch and only valid until
// the next insertion.
//
// The closure propagation iterates only the actual predecessors of i,
// gathered on demand into a bitset and walked via TrailingZeros64,
// instead of running the old p ≠ i, Has(p, i) probe over all n rows
// inside the propagation loop.
func (s *Set) AddDiffs(a, i, j int) []WordDiff {
	rel := s.Attr(a)
	if rel.Has(i, j) {
		return nil
	}
	n, w, rows, dirty := s.n, s.w, rel.rows, s.dirtyOf(a)
	// mask = successors of j, plus j itself.
	mask := s.mask()
	copy(mask, rows[j*w:(j+1)*w])
	mask[j>>6] |= 1 << (uint(j) & 63)

	// Only words where mask has bits can yield diffs; list them once so
	// every row visit scans the live words, not all w. A sparse insert —
	// the delta path's staple — has one or two live words per row
	// against fifteen at n = 900.
	sc := s.sc
	mw := sc.mw[:0]
	for wi, m := range mask {
		if m != 0 {
			mw = append(mw, int32(wi))
		}
	}
	sc.mw = mw

	diffs := sc.diffs[:0]
	apply := func(p int) {
		row := rows[p*w : (p+1)*w]
		marked := false
		for _, wi := range mw {
			diff := mask[wi] &^ row[wi]
			if diff == 0 {
				continue
			}
			row[wi] |= diff
			if !marked {
				markRow(dirty, p)
				marked = true
			}
			diffs = append(diffs, WordDiff{Row: int32(p), Word: wi, Bits: diff})
		}
	}
	apply(i)
	// Walk the predecessors of i — the set bits of column i — one
	// 64-row block at a time: gather the block's column bits into a
	// register, then propagate to the block's set rows immediately,
	// while those rows are still cache-resident from the gather. (A
	// full-column gather followed by one walk re-reads every
	// predecessor row cold; the blocked interleaving is worth ~40% on
	// the delta-chase insertion path.) Writes during the walk only OR
	// mask into rows that already carry bit i, so no row's column-i bit
	// changes under the gather and the blocked walk visits exactly the
	// predecessors an upfront gather would.
	iw, ib := i>>6, uint(i)&63
	for base := 0; base < n; base += 64 {
		hi := base + 64
		if hi > n {
			hi = n
		}
		var word uint64
		for p := base; p < hi; p++ {
			word |= (rows[p*w+iw] >> ib & 1) << (uint(p) & 63)
		}
		if base == i&^63 {
			word &^= 1 << (uint(i) & 63)
		}
		for ; word != 0; word &= word - 1 {
			apply(base + bits.TrailingZeros64(word))
		}
	}
	sc.diffs = diffs
	return diffs
}

// AddAllToWords bulk-inserts x ⪯a g for every tuple x and every g in
// group, restoring transitive closure. It implements the axiom ϕ8: once
// te[A] is known, every tuple is at most as accurate as the tuples
// carrying that value (the chase's value-ID equality classes, hence
// uint32). It ORs the group's accumulated successor mask into every row
// and hands the newly derived pairs back as per-row word masks, rows
// then words ascending — the shape the chase engine consumes
// word-at-a-time. Returning false from visit stops further visits; the
// matrix is still fully updated.
func (s *Set) AddAllToWords(a int, group []uint32, visit func(p, wi int, diff uint64) bool) {
	if len(group) == 0 {
		return
	}
	w, rows, dirty := s.w, s.matrix(a), s.dirtyOf(a)
	mask := s.mask()
	for _, g := range group {
		row := rows[int(g)*w : int(g+1)*w]
		for wi := 0; wi < w; wi++ {
			mask[wi] |= row[wi]
		}
		mask[g>>6] |= 1 << (uint(g) & 63)
	}
	live := true
	for p := 0; p < s.n; p++ {
		row := rows[p*w : (p+1)*w]
		marked := false
		for wi := 0; wi < w; wi++ {
			diff := mask[wi] &^ row[wi]
			if diff == 0 {
				continue
			}
			row[wi] |= diff
			if !marked {
				markRow(dirty, p)
				marked = true
			}
			if live && !visit(p, wi, diff) {
				live = false
			}
		}
	}
}

// SetClique32 marks every ordered pair within members (including
// reflexive pairs) as derived on attribute a, without closure
// propagation. It seeds the value-equality cliques of axiom ϕ9; callers
// must only use it on rows and columns that hold no pair yet, where
// cliques are closure-safe. The value-ID groups of the chase index
// their equality classes as []uint32, so the seeding path hands them
// straight through.
func (s *Set) SetClique32(a int, members []uint32) {
	s.SetBelow32(a, members, members)
}

// SetBelow32 marks lo ⪯a hi for every lo in los and hi in his, without
// closure propagation. It seeds axiom ϕ7 (null values have the lowest
// accuracy); as for SetClique32, callers must only use it on rows and
// columns that hold no pair yet, besides the cliques just seeded there
// (nulls form a clique that reaches all non-null tuples, which have no
// outgoing edges yet).
func (s *Set) SetBelow32(a int, los, his []uint32) {
	if len(los) == 0 || len(his) == 0 {
		return
	}
	mask, dirty := s.mask(), s.dirtyOf(a)
	for _, h := range his {
		mask[h>>6] |= 1 << (uint(h) & 63)
	}
	for _, l := range los {
		row := s.row(a, int(l))
		for wi, m := range mask {
			row[wi] |= m
		}
		markRow(dirty, int(l))
	}
}

// Max returns the index of a tuple t such that every other tuple t'
// satisfies t' ⪯a t — the λ function of the chase — or -1 when no such
// maximum exists. With n == 1 the single tuple is vacuously maximal.
// When several tuples dominate all others the smallest index is
// returned; in a conflict-free relation they carry the same value.
//
// The scan is a word-parallel column intersection: AND-accumulate every
// row (with the row's own diagonal bit supplied, since t ⪯ t is not
// required of a maximum), bail out as soon as the accumulator empties,
// and read the answer off the lowest surviving bit — O(n·w) word
// operations instead of O(n²) Has probes.
func (s *Set) Max(a int) int {
	n := s.n
	if n == 0 {
		return -1
	}
	if n == 1 {
		return 0
	}
	w, rows := s.w, s.matrix(a)
	var accArr [8]uint64
	var acc []uint64
	if w <= len(accArr) {
		acc = accArr[:w]
	} else {
		acc = make([]uint64, w)
	}
	for wi := range acc {
		acc[wi] = ^uint64(0)
	}
	for i := 0; i < n; i++ {
		row := rows[i*w : (i+1)*w]
		dw, db := i>>6, uint(i)&63
		diag := acc[dw] & (1 << db)
		var any uint64
		for wi := 0; wi < w; wi++ {
			x := acc[wi] & row[wi]
			acc[wi] = x
			any |= x
		}
		acc[dw] |= diag
		if any|diag == 0 {
			return -1
		}
	}
	for wi, word := range acc {
		if word != 0 {
			return wi<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// visitPairs calls visit for every derived pair i ⪯a j with i ≠ j.
func (s *Set) visitPairs(a int, visit func(i, j int)) {
	for i := 0; i < s.n; i++ {
		for wi, word := range s.row(a, i) {
			for ; word != 0; word &= word - 1 {
				if j := wi<<6 + bits.TrailingZeros64(word); j != i {
					visit(i, j)
				}
			}
		}
	}
}

// Pairs returns every derived pair (i ⪯a j) with i ≠ j in row-major
// order. Intended for tests and debugging.
func (s *Set) Pairs(a int) []Pair {
	out := make([]Pair, 0, s.Len(a))
	s.visitPairs(a, func(i, j int) { out = append(out, Pair{From: i, To: j}) })
	return out
}

// Len returns the number of derived non-reflexive pairs of attribute a,
// as a popcount sweep over the rows (minus the set diagonal bits)
// rather than a per-bit enumeration.
func (s *Set) Len(a int) int {
	c := 0
	for i := 0; i < s.n; i++ {
		row := s.row(a, i)
		for _, word := range row {
			c += bits.OnesCount64(word)
		}
		c -= int(row[i>>6] >> (uint(i) & 63) & 1)
	}
	return c
}

// TransitiveOK verifies that attribute a's relation is transitively
// closed; it is used by property tests. Each derived pair (i, j)
// contributes one word-subset check row_j ⊆ row_i (row_j &^ row_i == 0
// word by word) — O(pairs·w) instead of the O(n³) probe triple loop.
func (s *Set) TransitiveOK(a int) bool {
	for i := 0; i < s.n; i++ {
		ri := s.row(a, i)
		for wi, word := range ri {
			base := wi << 6
			for ; word != 0; word &= word - 1 {
				j := base + bits.TrailingZeros64(word)
				if j == i {
					continue
				}
				for k, x := range s.row(a, j) {
					if x&^ri[k] != 0 {
						return false
					}
				}
			}
		}
	}
	return true
}

// Clone deep-copies all relations (without dirty tracking).
func (s *Set) Clone() *Set {
	return &Set{n: s.n, w: s.w, attrs: s.attrs, rows: slices.Clone(s.rows)}
}

// CloneTracked deep-copies all relations with dirty-row tracking
// enabled: the copy records every row it subsequently writes, and
// ResetFrom(s) restores it to s's state by rewriting only those rows.
// The base set s must not change while tracked copies restore from it.
func (s *Set) CloneTracked() *Set {
	out := s.Clone()
	out.dirty = make([]uint64, s.attrs*((s.n+63)>>6))
	return out
}

// Extend returns a new set over n+m tuples: every derived pair of s is
// carried over and the m appended tuples start with no pairs. The
// receiver is unchanged — snapshots of it, and tracked clones restoring
// from it, stay valid — which is what lets a grounding version absorb
// new evidence tuples while in-flight checkers keep using the previous
// version. The result is untracked; CloneTracked it to obtain dirty-row
// restore against the extended base.
func (s *Set) Extend(m int) *Set {
	if m < 0 {
		panic("order: Extend with negative growth")
	}
	out := NewSet(s.attrs, s.n+m)
	for a := 0; a < s.attrs; a++ {
		if out.w == s.w {
			copy(out.matrix(a), s.matrix(a))
			continue
		}
		for i := 0; i < s.n; i++ {
			copy(out.row(a, i), s.row(a, i))
		}
	}
	return out
}

// ResetFrom restores s to the contents of base, rewriting only the rows
// written since s was created with CloneTracked (or since the previous
// ResetFrom), and marks every row clean again. On an untracked set it
// copies every row. s must have started as a copy of base: only dirty
// rows are touched.
func (s *Set) ResetFrom(base *Set) {
	if s.dirty == nil {
		copy(s.rows, base.rows)
		return
	}
	w, dw := s.w, (s.n+63)>>6
	for di, word := range s.dirty {
		if word == 0 {
			continue
		}
		s.dirty[di] = 0
		// Word di holds rows (di mod dw)·64… of attribute di / dw.
		slot := di/dw*s.n + di%dw<<6
		for ; word != 0; word &= word - 1 {
			off := (slot + bits.TrailingZeros64(word)) * w
			copy(s.rows[off:off+w], base.rows[off:off+w])
		}
	}
}
