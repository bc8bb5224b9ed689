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
// bulk insertion and cloning cheap.
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

import "math/bits"

// Pair is an ordered pair (From ⪯ To) of tuple indices.
type Pair struct{ From, To int }

// Relation is the weak accuracy order ⪯ on one attribute over tuples
// 0..n-1 of an entity instance. It maintains its own transitive closure
// incrementally. Create one with New, or as part of a Set.
//
// The header holds only the size, the rows and the dirty bits, plus a
// pointer to the scratch area of the insertion kernels, which every
// relation of one Set shares: a kernel's returned slice is valid until
// the next insertion into any relation of the set.
type Relation struct {
	n    int
	w    int      // 64-bit words per row
	rows []uint64 // n rows of w words; bit j of row i means i ⪯ j
	// dirty, when non-nil, is a bitset over rows recording which rows
	// have been written since the last ResetFrom. It lets a relation that
	// started as a snapshot of a base relation restore the base state by
	// rewriting only the rows it diverged on — the snapshot-restore
	// scheme behind the chase engine pool.
	dirty []uint64
	sc    *scratch
}

// scratch holds the reusable buffers of the insertion kernels: the
// one-row mask, AddDiffs' live-word list, and the backing arrays of
// Add's and AddDiffs' results. They make the mutation hot path
// allocation-free on a long-lived relation, and one scratch serves all
// the relations of a Set, which are never written concurrently.
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

// mask returns the scratch mask, zeroed and sized to one row.
func (r *Relation) mask() []uint64 {
	if r.sc == nil {
		r.sc = new(scratch)
	}
	sc := r.sc
	if cap(sc.mask) < r.w {
		sc.mask = make([]uint64, r.w)
	} else {
		sc.mask = sc.mask[:r.w]
		clear(sc.mask)
	}
	return sc.mask
}

// words returns the number of 64-bit words in a row over n tuples; an
// empty relation keeps one, so row arithmetic never divides by zero.
func words(n int) int {
	if n == 0 {
		return 1
	}
	return (n + 63) >> 6
}

// New creates an empty relation over n tuples.
func New(n int) *Relation {
	w := words(n)
	return &Relation{n: n, w: w, rows: make([]uint64, n*w)}
}

// Size returns the number of tuples the relation ranges over.
func (r *Relation) Size() int { return r.n }

// Has reports whether i ⪯ j has been derived.
func (r *Relation) Has(i, j int) bool {
	return r.rows[i*r.w+(j>>6)]&(1<<(uint(j)&63)) != 0
}

// Word returns word wi of row i: bit b is set when i ⪯ (wi<<6)+b has
// been derived.
func (r *Relation) Word(i, wi int) uint64 { return r.rows[i*r.w+wi] }

// markRow records that row i diverged from the snapshot this relation
// was cloned from; a no-op on untracked relations.
func (r *Relation) markRow(i int) {
	if r.dirty != nil {
		r.dirty[i>>6] |= 1 << (uint(i) & 63)
	}
}

// row returns the slice of words forming row i.
func (r *Relation) row(i int) []uint64 { return r.rows[i*r.w : (i+1)*r.w] }

// Add inserts the pair i ⪯ j and restores transitive closure. It returns
// the pairs that are newly derived, including (i, j) itself; adding an
// already-derived pair returns nil. Reflexive pairs (i == j) are
// permitted and harmless. Conflict detection is the caller's concern:
// inspect the returned pairs with Mutual. The returned slice is backed
// by the relation's scratch and only valid until the next insertion.
func (r *Relation) Add(i, j int) []Pair {
	diffs := r.AddDiffs(i, j)
	if len(diffs) == 0 {
		return nil
	}
	added := r.sc.pairs[:0]
	for _, d := range diffs {
		base := int(d.Word) << 6
		for bs := d.Bits; bs != 0; bs &= bs - 1 {
			added = append(added, Pair{From: int(d.Row), To: base + bits.TrailingZeros64(bs)})
		}
	}
	r.sc.pairs = added
	return added
}

// AddDiffs is the word-diff core of Add: it inserts i ⪯ j, fully
// restores transitive closure, and returns every newly derived pair as
// per-row word diffs — one WordDiff per (row, word) whose bits were
// newly set, in exactly the order Add reports pairs (row i first, then
// the predecessors of i ascending; words ascending within a row). An
// already-derived pair returns nil. The matrix is always fully updated
// before AddDiffs returns, so a caller that stops consuming the diffs
// early (the engine, on conflict) leaves the relation closed. The
// returned slice is backed by the relation's scratch and only valid
// until the next insertion.
//
// The closure propagation iterates only the actual predecessors of i,
// gathered on demand into a bitset and walked via TrailingZeros64,
// instead of running the old p ≠ i, Has(p, i) probe over all n rows
// inside the propagation loop.
func (r *Relation) AddDiffs(i, j int) []WordDiff {
	if r.Has(i, j) {
		return nil
	}
	w := r.w
	// mask = successors of j, plus j itself.
	mask := r.mask()
	copy(mask, r.row(j))
	mask[j>>6] |= 1 << (uint(j) & 63)

	// Only words where mask has bits can yield diffs; list them once so
	// every row visit scans the live words, not all w. A sparse insert —
	// the delta path's staple — has one or two live words per row
	// against fifteen at n = 900.
	sc := r.sc
	mw := sc.mw[:0]
	for wi, m := range mask {
		if m != 0 {
			mw = append(mw, int32(wi))
		}
	}
	sc.mw = mw

	diffs := sc.diffs[:0]
	apply := func(p int) {
		row := r.row(p)
		marked := false
		for _, wi := range mw {
			diff := mask[wi] &^ row[wi]
			if diff == 0 {
				continue
			}
			row[wi] |= diff
			if !marked {
				r.markRow(p)
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
	for base := 0; base < r.n; base += 64 {
		hi := base + 64
		if hi > r.n {
			hi = r.n
		}
		var word uint64
		for p := base; p < hi; p++ {
			word |= (r.rows[p*w+iw] >> ib & 1) << (uint(p) & 63)
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

// AddAllToWords bulk-inserts x ⪯ g for every tuple x and every g in
// group, restoring transitive closure. It implements the axiom ϕ8: once
// te[A] is known, every tuple is at most as accurate as the tuples
// carrying that value (the chase's value-ID equality classes, hence
// uint32). It ORs the group's accumulated successor mask into every row
// and hands the newly derived pairs back as per-row word masks, rows
// then words ascending — the shape the chase engine consumes
// word-at-a-time. Returning false from visit stops further visits; the
// matrix is still fully updated.
func (r *Relation) AddAllToWords(group []uint32, visit func(p, wi int, diff uint64) bool) {
	if len(group) == 0 {
		return
	}
	w := r.w
	mask := r.mask()
	for _, g := range group {
		row := r.row(int(g))
		for wi := 0; wi < w; wi++ {
			mask[wi] |= row[wi]
		}
		mask[g>>6] |= 1 << (uint(g) & 63)
	}
	r.addMaskWords(mask, visit)
}

// addMaskWords ORs mask into every row, handing each row's newly
// derived bits to visit word-at-a-time; the closure-restoring core of
// AddAllToWords.
func (r *Relation) addMaskWords(mask []uint64, visit func(p, wi int, diff uint64) bool) {
	w := r.w
	live := true
	for p := 0; p < r.n; p++ {
		row := r.row(p)
		marked := false
		for wi := 0; wi < w; wi++ {
			diff := mask[wi] &^ row[wi]
			if diff == 0 {
				continue
			}
			row[wi] |= diff
			if !marked {
				r.markRow(p)
				marked = true
			}
			if live && !visit(p, wi, diff) {
				live = false
			}
		}
	}
}

// SetClique32 marks every ordered pair within members (including
// reflexive pairs) as derived, without closure propagation. It seeds
// the value-equality cliques of axiom ϕ9; callers must only use it on
// rows and columns that hold no pair yet, where cliques are
// closure-safe. The value-ID groups of the chase index their equality
// classes as []uint32, so the seeding path hands them straight through.
func (r *Relation) SetClique32(members []uint32) {
	if len(members) == 0 {
		return
	}
	w := r.w
	mask := r.mask()
	for _, m := range members {
		mask[m>>6] |= 1 << (uint(m) & 63)
	}
	for _, m := range members {
		row := r.row(int(m))
		for wi := 0; wi < w; wi++ {
			row[wi] |= mask[wi]
		}
		r.markRow(int(m))
	}
}

// SetBelow32 marks lo ⪯ hi for every lo in los and hi in his, without
// closure propagation. It seeds axiom ϕ7 (null values have the lowest
// accuracy); as for SetClique32, callers must only use it on rows and
// columns that hold no pair yet, besides the cliques just seeded there
// (nulls form a clique that reaches all non-null tuples, which have no
// outgoing edges yet).
func (r *Relation) SetBelow32(los, his []uint32) {
	if len(los) == 0 || len(his) == 0 {
		return
	}
	w := r.w
	mask := r.mask()
	for _, h := range his {
		mask[h>>6] |= 1 << (uint(h) & 63)
	}
	for _, l := range los {
		row := r.row(int(l))
		for wi := 0; wi < w; wi++ {
			row[wi] |= mask[wi]
		}
		r.markRow(int(l))
	}
}

// Mutual reports whether both i ⪯ j and j ⪯ i hold.
func (r *Relation) Mutual(i, j int) bool {
	return r.Has(i, j) && r.Has(j, i)
}

// Max returns the index of a tuple t such that every other tuple t'
// satisfies t' ⪯ t — the λ function of the chase — or -1 when no such
// maximum exists. With n == 1 the single tuple is vacuously maximal.
// When several tuples dominate all others the smallest index is
// returned; in a conflict-free relation they carry the same value.
//
// The scan is a word-parallel column intersection: AND-accumulate every
// row (with the row's own diagonal bit supplied, since t ⪯ t is not
// required of a maximum), bail out as soon as the accumulator empties,
// and read the answer off the lowest surviving bit — O(n·w) word
// operations instead of O(n²) Has probes.
func (r *Relation) Max() int {
	n := r.n
	if n == 0 {
		return -1
	}
	if n == 1 {
		return 0
	}
	w := r.w
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
		row := r.rows[i*w : (i+1)*w]
		dw, db := i>>6, uint(i)&63
		diag := acc[dw] & (1 << db)
		var any uint64
		for wi := 0; wi < w; wi++ {
			a := acc[wi] & row[wi]
			acc[wi] = a
			any |= a
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

// VisitPairs calls visit for every derived pair i ⪯ j with i ≠ j.
func (r *Relation) VisitPairs(visit func(i, j int)) {
	for i := 0; i < r.n; i++ {
		row := r.row(i)
		for wi, word := range row {
			for word != 0 {
				b := word & -word
				j := wi<<6 + bits.TrailingZeros64(b)
				if j != i {
					visit(i, j)
				}
				word &= word - 1
			}
		}
	}
}

// Pairs returns every derived pair (i ⪯ j) with i ≠ j in row-major
// order. Intended for tests and debugging.
func (r *Relation) Pairs() []Pair {
	out := make([]Pair, 0, r.Len())
	r.VisitPairs(func(i, j int) { out = append(out, Pair{From: i, To: j}) })
	return out
}

// Len returns the number of derived non-reflexive pairs, as a popcount
// sweep over the rows (minus the set diagonal bits) rather than a
// per-bit enumeration.
func (r *Relation) Len() int {
	c := 0
	w := r.w
	for i := 0; i < r.n; i++ {
		row := r.rows[i*w : (i+1)*w]
		for _, word := range row {
			c += bits.OnesCount64(word)
		}
		c -= int(row[i>>6] >> (uint(i) & 63) & 1)
	}
	return c
}

// Extend returns a new relation over n+m tuples: every derived pair of
// r is carried over and the m appended tuples start with no pairs. The
// receiver is unchanged — snapshots of it, and tracked clones restoring
// from it, stay valid — which is what lets a grounding version absorb
// new evidence tuples while in-flight checkers keep using the previous
// version. The result is untracked; CloneTracked it to obtain dirty-row
// restore against the extended base.
func (r *Relation) Extend(m int) *Relation {
	if m < 0 {
		panic("order: Extend with negative growth")
	}
	out := New(r.n + m)
	r.extendInto(out.rows, out.w)
	return out
}

// extendInto copies r's rows into rows, a zeroed matrix of r.n or more
// rows of w ≥ r.w words.
func (r *Relation) extendInto(rows []uint64, w int) {
	if w == r.w {
		copy(rows, r.rows)
		return
	}
	for i := 0; i < r.n; i++ {
		copy(rows[i*w:i*w+r.w], r.row(i))
	}
}

// Clone returns a deep copy of the relation (without dirty tracking).
func (r *Relation) Clone() *Relation {
	out := &Relation{n: r.n, w: r.w, rows: make([]uint64, len(r.rows))}
	copy(out.rows, r.rows)
	return out
}

// CloneTracked returns a deep copy with dirty-row tracking enabled: the
// copy records every row it subsequently writes, and ResetFrom(r)
// restores it to r's state by rewriting only those rows. The base
// relation r must not change while tracked copies restore from it.
func (r *Relation) CloneTracked() *Relation {
	out := r.Clone()
	out.dirty = make([]uint64, (r.n+63)/64)
	return out
}

// CopyFrom overwrites r with src's contents; the relations must have the
// same size. It lets a chase runner reuse allocations across runs.
func (r *Relation) CopyFrom(src *Relation) {
	copy(r.rows, src.rows)
}

// ResetFrom restores r to the contents of base, rewriting only the rows
// written since the relation was created with CloneTracked (or since the
// previous ResetFrom), and marks every row clean again. On an untracked
// relation it falls back to a full CopyFrom. r must have started as a
// copy of base: only dirty rows are touched.
func (r *Relation) ResetFrom(base *Relation) {
	if r.dirty == nil {
		r.CopyFrom(base)
		return
	}
	w := r.w
	for wi, word := range r.dirty {
		if word == 0 {
			continue
		}
		r.dirty[wi] = 0
		for word != 0 {
			i := wi<<6 + bits.TrailingZeros64(word)
			copy(r.rows[i*w:(i+1)*w], base.rows[i*w:(i+1)*w])
			word &= word - 1
		}
	}
}

// TransitiveOK verifies the relation is transitively closed; it is used
// by property tests. Each derived pair (i, j) contributes one
// word-subset check row_j ⊆ row_i (row_j &^ row_i == 0 word by word) —
// O(pairs·w) instead of the O(n³) probe triple loop.
func (r *Relation) TransitiveOK() bool {
	w := r.w
	for i := 0; i < r.n; i++ {
		ri := r.row(i)
		for wi, word := range ri {
			base := wi << 6
			for ; word != 0; word &= word - 1 {
				j := base + bits.TrailingZeros64(word)
				if j == i {
					continue
				}
				rj := r.row(j)
				for k := 0; k < w; k++ {
					if rj[k]&^ri[k] != 0 {
						return false
					}
				}
			}
		}
	}
	return true
}

// Set is the collection of accuracy orders for all attributes of a
// schema: one Relation per attribute, as in the accuracy instance
// D = (Ie, ⪯A1, ..., ⪯An). A Set holds its relations in one slice and
// all their rows in one slab (rows), relation a's matrix being the a-th
// n·w-word stretch of it, so building, cloning or extending a Set costs
// a constant number of allocations however many attributes it has; its
// relations share one kernel scratch.
type Set struct {
	n     int
	attrs int
	rels  []Relation
	rows  []uint64
}

// newSet lays out a Set of attrs relations over n tuples on the row
// slab rows (attrs·n·words(n) words) and, when tracked, with dirty-row
// tracking.
func newSet(attrs, n int, rows []uint64, tracked bool) *Set {
	w := words(n)
	s := &Set{n: n, attrs: attrs, rels: make([]Relation, attrs), rows: rows}
	var dirty []uint64
	dw := (n + 63) >> 6
	if tracked {
		dirty = make([]uint64, attrs*dw)
	}
	sc := new(scratch)
	stride := n * w
	for a := range s.rels {
		r := &s.rels[a]
		r.n, r.w, r.sc = n, w, sc
		r.rows = rows[a*stride : (a+1)*stride : (a+1)*stride]
		if tracked {
			r.dirty = dirty[a*dw : (a+1)*dw : (a+1)*dw]
		}
	}
	return s
}

// NewSet creates empty relations for attrs attributes over n tuples.
func NewSet(attrs, n int) *Set {
	return newSet(attrs, n, make([]uint64, attrs*n*words(n)), false)
}

// Attrs returns the number of attributes.
func (s *Set) Attrs() int { return s.attrs }

// Size returns the number of tuples each relation ranges over.
func (s *Set) Size() int { return s.n }

// Attr returns the relation for attribute position a.
func (s *Set) Attr(a int) *Relation { return &s.rels[a] }

// Clone deep-copies all relations.
func (s *Set) Clone() *Set {
	return newSet(s.attrs, s.n, append([]uint64(nil), s.rows...), false)
}

// CloneTracked deep-copies all relations with dirty-row tracking
// enabled, so the copy can ResetFrom(s) cheaply after divergence.
func (s *Set) CloneTracked() *Set {
	return newSet(s.attrs, s.n, append([]uint64(nil), s.rows...), true)
}

// Extend returns a new set over n+m tuples with every relation's pairs
// carried over; see Relation.Extend.
func (s *Set) Extend(m int) *Set {
	if m < 0 {
		panic("order: Extend with negative growth")
	}
	n := s.n + m
	out := newSet(s.attrs, n, make([]uint64, s.attrs*n*words(n)), false)
	for a := range s.rels {
		s.rels[a].extendInto(out.rels[a].rows, out.rels[a].w)
	}
	return out
}

// ResetFrom restores every relation to base's contents, touching only
// rows written since the last reset (see Relation.ResetFrom).
func (s *Set) ResetFrom(base *Set) {
	for a := range s.rels {
		s.rels[a].ResetFrom(&base.rels[a])
	}
}

// TotalPairs sums Len over all attributes.
func (s *Set) TotalPairs() int {
	t := 0
	for a := range s.rels {
		t += s.rels[a].Len()
	}
	return t
}
