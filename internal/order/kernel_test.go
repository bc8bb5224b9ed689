package order

import (
	"math/bits"
	"math/rand"
	"testing"
)

// AddAllTo32 is AddAllToWords visiting one pair at a time, the shape
// the reference refAddAllTo32 reports in.
func (r *Relation) AddAllTo32(group []uint32, visit func(from, to int)) {
	r.AddAllToWords(group, func(p, wi int, diff uint64) bool {
		base := wi << 6
		for d := diff; d != 0; d &= d - 1 {
			visit(p, base+bits.TrailingZeros64(d))
		}
		return true
	})
}

// DirtyRows returns the number of rows currently marked dirty.
func (r *Relation) DirtyRows() int {
	c := 0
	for _, word := range r.dirty {
		c += bits.OnesCount64(word)
	}
	return c
}

// kernelSizes crosses the 64-bit word boundaries the word-parallel
// kernels special-case implicitly: one word exactly, one word plus one
// bit, two words, and the small degenerate sizes.
var kernelSizes = []int{0, 1, 2, 3, 7, 63, 64, 65, 127, 128, 129}

// randomRelation drives r (and its mirror, when non-nil) through a
// deterministic random op sequence using only the naive reference
// mutators, so the resulting matrix is trusted ground truth for the
// read-kernel comparisons.
func randomRelation(rng *rand.Rand, n int, density float64) *Relation {
	r := New(n)
	if n == 0 {
		return r
	}
	pairs := int(float64(n*n) * density / float64(n))
	if pairs < 1 {
		pairs = 1
	}
	for k := 0; k < pairs; k++ {
		r.refAdd(rng.Intn(n), rng.Intn(n))
	}
	return r
}

func sameRows(a, b *Relation) bool {
	if a.n != b.n || a.w != b.w || len(a.rows) != len(b.rows) {
		return false
	}
	for i, w := range a.rows {
		if b.rows[i] != w {
			return false
		}
	}
	return true
}

// TestKernelMaxDifferential pits the word-parallel Max against the
// probe-based reference across word-boundary sizes and densities,
// including the all-pairs clique (a maximum exists) and near-empty
// relations (none does).
func TestKernelMaxDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range kernelSizes {
		for _, density := range []float64{0, 0.1, 0.5, 1.5, 8} {
			for trial := 0; trial < 8; trial++ {
				r := randomRelation(rng, n, density)
				if got, want := r.Max(), r.refMax(); got != want {
					t.Fatalf("n=%d density=%v: Max=%d refMax=%d", n, density, got, want)
				}
			}
		}
		// Full clique: every index is maximal; both must pick index 0.
		if n > 0 {
			r := New(n)
			members := make([]uint32, n)
			for i := range members {
				members[i] = uint32(i)
			}
			r.SetClique32(members)
			if got, want := r.Max(), r.refMax(); got != want || got != 0 {
				t.Fatalf("n=%d clique: Max=%d refMax=%d", n, got, want)
			}
		}
	}
}

// TestKernelLenAndTransitiveDifferential checks the popcount Len and the
// word-subset TransitiveOK against their references, including a
// deliberately broken closure.
func TestKernelLenAndTransitiveDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range kernelSizes {
		for trial := 0; trial < 8; trial++ {
			r := randomRelation(rng, n, 1.2)
			if got, want := r.Len(), r.refLen(); got != want {
				t.Fatalf("n=%d: Len=%d refLen=%d", n, got, want)
			}
			if got, want := r.TransitiveOK(), r.refTransitiveOK(); got != want || !got {
				t.Fatalf("n=%d: TransitiveOK=%v ref=%v (closed relation)", n, got, want)
			}
		}
		if n < 3 {
			continue // can't break closure without a 3-chain
		}
		// Break the closure by hand: derive 0 ⪯ 1 ⪯ 2 then clear 0 ⪯ 2.
		r := New(n)
		r.refAdd(0, 1)
		r.refAdd(1, 2)
		r.rows[0*r.w+(2>>6)] &^= 1 << 2
		if r.TransitiveOK() || r.refTransitiveOK() {
			t.Fatalf("n=%d: broken closure not detected (TransitiveOK=%v ref=%v)",
				n, r.TransitiveOK(), r.refTransitiveOK())
		}
	}
}

// TestKernelAddDifferential drives Add and refAdd with the same pair
// sequence on separate relations and demands identical returned pairs
// (same order) and identical matrices after every step.
func TestKernelAddDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range kernelSizes {
		if n == 0 {
			continue
		}
		fast, ref := New(n), New(n)
		for step := 0; step < 4*n+8; step++ {
			i, j := rng.Intn(n), rng.Intn(n)
			got := fast.Add(i, j)
			want := ref.refAdd(i, j)
			if len(got) != len(want) {
				t.Fatalf("n=%d Add(%d,%d): %d pairs, ref %d", n, i, j, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("n=%d Add(%d,%d) pair %d: %v vs ref %v", n, i, j, k, got[k], want[k])
				}
			}
			if !sameRows(fast, ref) {
				t.Fatalf("n=%d Add(%d,%d): matrices diverged", n, i, j)
			}
		}
		if !fast.TransitiveOK() {
			t.Fatalf("n=%d: closure lost after Add sequence", n)
		}
	}
}

// TestKernelAddAllToDifferential drives AddAllTo32 and refAddAllTo32
// with the same groups on separate relations, comparing the visited
// pair sequences and final matrices.
func TestKernelAddAllToDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range kernelSizes {
		if n == 0 {
			continue
		}
		fast, ref := randomRelation(rng, n, 0.5), New(n)
		ref.CopyFrom(fast)
		for step := 0; step < 6; step++ {
			group := make([]uint32, 1+rng.Intn(3))
			for k := range group {
				group[k] = uint32(rng.Intn(n))
			}
			var got, want []Pair
			fast.AddAllTo32(group, func(f, to int) { got = append(got, Pair{f, to}) })
			ref.refAddAllTo32(group, func(f, to int) { want = append(want, Pair{f, to}) })
			if len(got) != len(want) {
				t.Fatalf("n=%d group %v: %d pairs, ref %d", n, group, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("n=%d group %v pair %d: %v vs ref %v", n, group, k, got[k], want[k])
				}
			}
			if !sameRows(fast, ref) {
				t.Fatalf("n=%d group %v: matrices diverged", n, group)
			}
		}
	}
}

// TestKernelAddDiffs checks AddDiffs' contract directly: the diffs
// expand to exactly refAdd's pair sequence, and the matrix is always
// fully updated before the caller sees them — the engine relies on
// that when a conflict stops it consuming the diffs mid-slice.
func TestKernelAddDiffs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{5, 65, 129} {
		fast, ref := randomRelation(rng, n, 0.4), New(n)
		ref.CopyFrom(fast)
		for step := 0; step < 3*n; step++ {
			i, j := rng.Intn(n), rng.Intn(n)
			var got []Pair
			for _, d := range fast.AddDiffs(i, j) {
				if d.Bits == 0 {
					t.Fatalf("n=%d AddDiffs(%d,%d): empty word diff", n, i, j)
				}
				base := int(d.Word) << 6
				for bs := d.Bits; bs != 0; bs &= bs - 1 {
					got = append(got, Pair{From: int(d.Row), To: base + bits.TrailingZeros64(bs)})
				}
			}
			want := ref.refAdd(i, j)
			if len(got) != len(want) {
				t.Fatalf("n=%d AddDiffs(%d,%d): %d pairs, ref %d", n, i, j, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("n=%d AddDiffs(%d,%d) pair %d: %v vs %v", n, i, j, k, got[k], want[k])
				}
			}
			if !sameRows(fast, ref) {
				t.Fatalf("n=%d AddDiffs(%d,%d): matrices diverged", n, i, j)
			}
		}
	}
}

// TestKernelDirtyTracking checks that the word-parallel mutators mark
// exactly the rows they touch, so ResetFrom restores a tracked clone
// bit-for-bit.
func TestKernelDirtyTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 64, 65, 129} {
		base := randomRelation(rng, n, 0.3)
		tr := base.CloneTracked()
		for step := 0; step < 2*n; step++ {
			switch rng.Intn(3) {
			case 0:
				tr.Add(rng.Intn(n), rng.Intn(n))
			case 1:
				group := []uint32{uint32(rng.Intn(n))}
				tr.AddAllTo32(group, func(int, int) {})
			case 2:
				tr.SetClique32([]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))})
			}
		}
		tr.ResetFrom(base)
		if !sameRows(tr, base) {
			t.Fatalf("n=%d: ResetFrom did not restore the base matrix", n)
		}
		if d := tr.DirtyRows(); d != 0 {
			t.Fatalf("n=%d: %d rows still dirty after ResetFrom", n, d)
		}
	}
}

// FuzzRelationOps feeds a byte-string op program to a tracked relation
// and its naive mirror: every mutation runs through both the word-
// parallel kernel and the reference, and after each op the matrices,
// Max and closure must agree; at the end the tracked relation must
// restore its base exactly.
func FuzzRelationOps(f *testing.F) {
	f.Add([]byte{65, 0, 1, 2, 3, 1, 4, 5, 2, 6, 7, 8})
	f.Add([]byte{129, 0, 10, 20, 3, 200, 100, 50})
	f.Add([]byte{64, 2, 1, 2, 3})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) < 2 {
			return
		}
		n := int(program[0])%130 + 1
		base := New(n)
		fast := base.CloneTracked()
		ref := New(n)
		program = program[1:]
		for len(program) >= 3 {
			op, a, b := program[0]%3, int(program[1])%n, int(program[2])%n
			program = program[3:]
			switch op {
			case 0: // single pair
				got := fast.Add(a, b)
				want := ref.refAdd(a, b)
				if len(got) != len(want) {
					t.Fatalf("Add(%d,%d): %d pairs vs ref %d", a, b, len(got), len(want))
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("Add(%d,%d) pair %d: %v vs %v", a, b, k, got[k], want[k])
					}
				}
			case 1: // bulk ϕ8 group
				group := []uint32{uint32(a), uint32(b)}
				var got, want []Pair
				fast.AddAllTo32(group, func(x, y int) { got = append(got, Pair{x, y}) })
				ref.refAddAllTo32(group, func(x, y int) { want = append(want, Pair{x, y}) })
				if len(got) != len(want) {
					t.Fatalf("AddAllTo(%v): %d pairs vs ref %d", group, len(got), len(want))
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("AddAllTo(%v) pair %d: %v vs %v", group, k, got[k], want[k])
					}
				}
			case 2: // clique seed (closure-safe only on matching state; use refAdd path)
				got := fast.Add(a, a)
				want := ref.refAdd(a, a)
				if len(got) != len(want) {
					t.Fatalf("Add(%d,%d) reflexive: %d pairs vs ref %d", a, a, len(got), len(want))
				}
			}
			if !sameRows(fast, ref) {
				t.Fatal("matrices diverged")
			}
			if fast.Max() != ref.refMax() {
				t.Fatalf("Max=%d refMax=%d", fast.Max(), ref.refMax())
			}
			if fast.Len() != ref.refLen() {
				t.Fatalf("Len=%d refLen=%d", fast.Len(), ref.refLen())
			}
			if !fast.TransitiveOK() || !ref.refTransitiveOK() {
				t.Fatal("closure lost")
			}
		}
		fast.ResetFrom(base)
		if !sameRows(fast, base) {
			t.Fatal("ResetFrom did not restore the base matrix")
		}
	})
}
