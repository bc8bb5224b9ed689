package order

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddBasics(t *testing.T) {
	r := NewSet(2, 3)
	if r.Has(1, 0, 1) {
		t.Fatalf("fresh relation should be empty")
	}
	added := r.Add(1, 0, 1)
	if len(added) != 1 || added[0] != (Pair{0, 1}) {
		t.Fatalf("Add(0,1) = %v", added)
	}
	if !r.Has(1, 0, 1) || r.Has(1, 1, 0) {
		t.Errorf("Has wrong after Add")
	}
	if r.Add(1, 0, 1) != nil {
		t.Errorf("re-adding should return nil")
	}
}

func TestAddTransitivity(t *testing.T) {
	r := NewSet(2, 4)
	r.Add(1, 0, 1)
	r.Add(1, 1, 2)
	if !r.Has(1, 0, 2) {
		t.Errorf("transitive pair 0⪯2 missing")
	}
	added := r.Add(1, 2, 3)
	// 2⪯3 must also derive 0⪯3 and 1⪯3.
	want := map[Pair]bool{{2, 3}: true, {0, 3}: true, {1, 3}: true}
	if len(added) != 3 {
		t.Fatalf("Add(2,3) = %v", added)
	}
	for _, p := range added {
		if !want[p] {
			t.Errorf("unexpected derived pair %v", p)
		}
	}
	if !r.TransitiveOK(1) {
		t.Errorf("closure violated")
	}
}

func TestReflexiveAdd(t *testing.T) {
	r := NewSet(2, 2)
	added := r.Add(1, 0, 0)
	if len(added) != 1 || !r.Has(1, 0, 0) {
		t.Errorf("reflexive add failed: %v", added)
	}
}

func TestMax(t *testing.T) {
	r := NewSet(2, 3)
	if r.Max(1) != -1 {
		t.Errorf("empty relation has no max")
	}
	r.Add(1, 0, 2)
	if r.Max(1) != -1 {
		t.Errorf("partial order has no max yet")
	}
	r.Add(1, 1, 2)
	if r.Max(1) != 2 {
		t.Errorf("Max = %d, want 2", r.Max(1))
	}
	if NewSet(2, 1).Max(1) != 0 {
		t.Errorf("singleton max should be 0")
	}
	if NewSet(2, 0).Max(1) != -1 {
		t.Errorf("empty-size relation max should be -1")
	}
}

func TestMutual(t *testing.T) {
	r := NewSet(2, 2)
	r.Add(1, 0, 1)
	if r.Mutual(1, 0, 1) {
		t.Errorf("one direction is not mutual")
	}
	r.Add(1, 1, 0)
	if !r.Mutual(1, 0, 1) || !r.Mutual(1, 1, 0) {
		t.Errorf("Mutual failed")
	}
}

func TestSetCliqueAndBelow(t *testing.T) {
	r := NewSet(2, 5)
	r.SetClique32(1, []uint32{0, 1})
	r.SetClique32(1, []uint32{3, 4})
	r.SetBelow32(1, []uint32{3, 4}, []uint32{0, 1, 2})
	if !r.Has(1, 0, 1) || !r.Has(1, 1, 0) || !r.Has(1, 0, 0) {
		t.Errorf("clique pairs missing")
	}
	if !r.Has(1, 3, 2) || !r.Has(1, 4, 0) {
		t.Errorf("below pairs missing")
	}
	if r.Has(1, 2, 3) {
		t.Errorf("unexpected pair 2⪯3")
	}
	if !r.TransitiveOK(1) {
		t.Errorf("seed state must be closed")
	}
}

func TestAddAllTo(t *testing.T) {
	r := NewSet(2, 4)
	r.SetClique32(1, []uint32{1, 2}) // the value group
	var derived []Pair
	r.AddAllTo32(1, []uint32{1, 2}, func(i, j int) { derived = append(derived, Pair{i, j}) })
	for i := 0; i < 4; i++ {
		if !r.Has(1, i, 1) || !r.Has(1, i, 2) {
			t.Errorf("tuple %d should reach the group", i)
		}
	}
	if !r.TransitiveOK(1) {
		t.Errorf("closure violated")
	}
	// Derived pairs must exclude the pre-existing clique pairs.
	for _, p := range derived {
		if (p.From == 1 || p.From == 2) && (p.To == 1 || p.To == 2) {
			t.Errorf("pre-existing pair %v reported as derived", p)
		}
	}
}

func TestAddAllToPropagation(t *testing.T) {
	// Group members already reach 3; everyone must now reach 3 too.
	r := NewSet(2, 4)
	r.Add(1, 1, 3)
	r.AddAllTo32(1, []uint32{1}, func(int, int) {})
	if !r.Has(1, 0, 3) || !r.Has(1, 2, 3) {
		t.Errorf("AddAllTo32 must propagate the group's successors")
	}
	if !r.TransitiveOK(1) {
		t.Errorf("closure violated")
	}
}

// TestCloneResetFrom: a clone shares no rows with its source, and an
// untracked ResetFrom copies every row back.
func TestCloneResetFrom(t *testing.T) {
	r := NewSet(2, 3)
	r.Add(1, 0, 1)
	c := r.Clone()
	c.Add(1, 1, 2)
	if r.Has(1, 1, 2) {
		t.Errorf("Clone aliases the original")
	}
	r2 := NewSet(2, 3)
	r2.ResetFrom(c)
	if !r2.Has(1, 0, 2) || r2.Len(0) != 0 {
		t.Errorf("untracked ResetFrom lost or moved pairs")
	}
}

func TestPairsLen(t *testing.T) {
	r := NewSet(2, 3)
	r.Add(1, 0, 1)
	r.Add(1, 1, 2)
	if r.Len(1) != 3 { // 0⪯1, 1⪯2, 0⪯2
		t.Errorf("Len = %d", r.Len(1))
	}
	if len(r.Pairs(1)) != 3 {
		t.Errorf("Pairs = %v", r.Pairs(1))
	}
	if r.Len(0) != 0 || len(r.Pairs(0)) != 0 {
		t.Errorf("attribute 0 holds pairs: %v", r.Pairs(0))
	}
}

func TestSet(t *testing.T) {
	s := NewSet(2, 3)
	if s.Attrs() != 2 || s.Size() != 3 {
		t.Errorf("shape wrong")
	}
	s.Add(0, 0, 1)
	if s.Has(1, 0, 1) {
		t.Errorf("attributes must be independent")
	}
	c := s.Clone()
	c.Add(0, 1, 2)
	if s.Has(0, 1, 2) {
		t.Errorf("Clone aliases")
	}
	if s.Len(0)+s.Len(1) != 1 {
		t.Errorf("pairs = %d", s.Len(0)+s.Len(1))
	}
}

// TestClosureProperty: after any random sequence of Adds the relation is
// transitively closed, and Has(i,j) matches reachability in the inserted
// edge set.
func TestClosureProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		r := NewSet(3, n)
		edges := make([][]bool, n)
		for i := range edges {
			edges[i] = make([]bool, n)
		}
		for k := 0; k < 12; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			r.Add(2, i, j)
			edges[i][j] = true
		}
		if !r.TransitiveOK(2) {
			return false
		}
		// Floyd-Warshall reference reachability.
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = append([]bool(nil), edges[i]...)
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if reach[i][k] && reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if r.Has(2, i, j) != reach[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAddReportsExactlyNewPairs: the pairs returned by Add are exactly
// the delta of the relation.
func TestAddReportsExactlyNewPairs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		r := NewSet(2, n)
		total := 0
		for k := 0; k < 10; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			before := countAll(r, 1)
			added := r.Add(1, i, j)
			after := countAll(r, 1)
			if after-before != len(added) {
				return false
			}
			total += len(added)
		}
		return total == countAll(r, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func countAll(r *Set, a int) int {
	c := 0
	for i := 0; i < r.Size(); i++ {
		for j := 0; j < r.Size(); j++ {
			if r.Has(a, i, j) {
				c++
			}
		}
	}
	return c
}

func TestLargeRelation(t *testing.T) {
	// Exercise multi-word bitset rows (n > 64).
	n := 200
	r := NewSet(2, n)
	for i := 0; i < n-1; i++ {
		r.Add(1, i, i+1)
	}
	if !r.Has(1, 0, n-1) {
		t.Errorf("chain closure missing")
	}
	for i := 0; i < n-1; i++ {
		if !r.Has(1, i, n-1) {
			t.Errorf("chain closure misses %d ⪯ %d", i, n-1)
		}
	}
	if r.Max(1) != n-1 {
		t.Errorf("Max = %d", r.Max(1))
	}
}

func TestBitIndexBeyondWordBoundary(t *testing.T) {
	// Regression test for the bit-index expression in Has/set: with
	// n > 64 the word offset is (a*n+i)*w + (j>>6); a misparse as
	// ((a*n+i)*w + j) >> 6 would address the wrong word. Exercise bits
	// on both sides of every word boundary, on an attribute past the
	// first.
	n := 130 // three words per row
	r := NewSet(3, n)
	pairs := [][2]int{{0, 63}, {0, 64}, {0, 65}, {1, 127}, {1, 128}, {2, 129}, {129, 0}}
	for _, p := range pairs {
		r.Add(1, p[0], p[1])
	}
	for _, p := range pairs {
		if !r.Has(1, p[0], p[1]) {
			t.Errorf("Has(%d, %d) = false after Add", p[0], p[1])
		}
		if r.Word(1, p[0], p[1]>>6)>>(p[1]&63)&1 == 0 {
			t.Errorf("Word(%d, %d) lacks bit %d", p[0], p[1]>>6, p[1]&63)
		}
	}
	if got := r.Word(1, 0, 1); got != 1|1<<1 {
		t.Errorf("Word(0, 1) = %#x, want bits 64 and 65 only", got)
	}
	// Spot-check neighbouring bits stayed clear (no closure links them).
	for _, p := range [][2]int{{0, 62}, {0, 66}, {1, 126}, {2, 128}, {128, 0}} {
		if r.Has(1, p[0], p[1]) {
			t.Errorf("Has(%d, %d) = true, never added", p[0], p[1])
		}
	}
	if r.Len(0) != 0 || r.Len(2) != 0 {
		t.Errorf("pairs leaked into the neighbouring attributes: %d, %d", r.Len(0), r.Len(2))
	}
}

func TestCloneTrackedResetFrom(t *testing.T) {
	n := 100
	base := NewSet(2, n)
	base.Add(1, 1, 2)
	base.Add(1, 2, 3)

	r := base.CloneTracked()
	if got := r.DirtyRows(); got != 0 {
		t.Fatalf("fresh tracked clone has %d dirty rows", got)
	}
	r.Add(1, 70, 80)
	r.Add(1, 0, 1) // row 0 gains 1,2,3 by closure
	if r.DirtyRows() == 0 {
		t.Fatal("writes did not mark rows dirty")
	}
	r.ResetFrom(base)
	if got := r.DirtyRows(); got != 0 {
		t.Fatalf("ResetFrom left %d dirty rows", got)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Has(1, i, j) != base.Has(1, i, j) {
				t.Fatalf("after ResetFrom, (%d,%d): got %v want %v", i, j, r.Has(1, i, j), base.Has(1, i, j))
			}
		}
	}
	// The restored relation is reusable: diverge and restore again.
	r.AddAllTo32(1, []uint32{5}, func(int, int) {})
	r.SetClique32(1, []uint32{90, 91})
	r.SetBelow32(1, []uint32{10}, []uint32{11})
	r.ResetFrom(base)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Has(1, i, j) != base.Has(1, i, j) {
				t.Fatalf("second ResetFrom, (%d,%d): got %v want %v", i, j, r.Has(1, i, j), base.Has(1, i, j))
			}
		}
	}
}

func TestSetCloneTrackedResetFrom(t *testing.T) {
	base := NewSet(2, 70)
	base.Add(0, 0, 1)
	base.Add(1, 65, 66)

	s := base.CloneTracked()
	s.Add(0, 2, 3)
	s.Add(1, 0, 69)
	s.ResetFrom(base)
	for a := 0; a < 2; a++ {
		if got, want := s.Len(a), base.Len(a); got != want {
			t.Errorf("attr %d: Len = %d after reset, want %d", a, got, want)
		}
	}
	if s.Has(0, 2, 3) || s.Has(1, 0, 69) {
		t.Error("diverged pairs survived ResetFrom")
	}
}

// TestExtend: the append-row operation preserves every derived pair,
// leaves the receiver untouched, and the result composes with closure
// maintenance and dirty-row snapshots like any fresh set.
func TestExtend(t *testing.T) {
	// Sizes straddling the 64-bit word boundary exercise the row
	// re-striding path.
	for _, n := range []int{3, 60, 64, 100} {
		for _, m := range []int{1, 7, 64} {
			r := NewSet(3, n)
			rng := rand.New(rand.NewSource(int64(n*1000 + m)))
			for k := 0; k < 2*n; k++ {
				r.Add(1, rng.Intn(n), rng.Intn(n))
			}
			beforePairs := r.Pairs(1)
			ext := r.Extend(m)
			if ext.Size() != n+m {
				t.Fatalf("Extend(%d) of %d-relation has size %d", m, n, ext.Size())
			}
			for _, p := range beforePairs {
				if !ext.Has(1, p.From, p.To) {
					t.Fatalf("n=%d m=%d: pair (%d,%d) lost by Extend", n, m, p.From, p.To)
				}
			}
			if ext.Len(1) != r.Len(1) || ext.Len(0) != 0 || ext.Len(2) != 0 {
				t.Fatalf("n=%d m=%d: Extend added pairs: %d vs %d", n, m, ext.Len(1), r.Len(1))
			}
			for i := n; i < n+m; i++ {
				for j := 0; j < n+m; j++ {
					if ext.Has(1, i, j) || ext.Has(1, j, i) {
						t.Fatalf("n=%d m=%d: new tuple %d has pairs", n, m, i)
					}
				}
			}
			// Mutating the extension must not leak into the receiver.
			ext.Add(1, n+m-1, 0)
			if r.Len(1) != len(beforePairs) {
				t.Fatalf("n=%d m=%d: Extend shares storage with the receiver", n, m)
			}
			if !ext.TransitiveOK(1) {
				t.Fatalf("n=%d m=%d: extension lost transitive closure", n, m)
			}
			// Dirty-row snapshots against the extended base behave as
			// against any base.
			snap := ext.CloneTracked()
			snap.Add(1, 0, n+m-1)
			snap.ResetFrom(ext)
			for i := 0; i < n+m; i++ {
				for j := 0; j < n+m; j++ {
					if snap.Has(1, i, j) != ext.Has(1, i, j) {
						t.Fatalf("n=%d m=%d: tracked clone of extension failed to restore", n, m)
					}
				}
			}
		}
	}
}

// TestSetExtend: Set.Extend extends every attribute's relation.
func TestSetExtend(t *testing.T) {
	s := NewSet(3, 5)
	s.Add(0, 0, 1)
	s.Add(2, 3, 4)
	ext := s.Extend(2)
	if ext.Size() != 7 || ext.Attrs() != 3 {
		t.Fatalf("Extend shape: %d tuples, %d attrs", ext.Size(), ext.Attrs())
	}
	if !ext.Has(0, 0, 1) || !ext.Has(2, 3, 4) {
		t.Fatal("Set.Extend lost pairs")
	}
	for a := 0; a < 3; a++ {
		if ext.Len(a) != s.Len(a) {
			t.Fatalf("Set.Extend pair counts on attribute %d: %d vs %d", a, ext.Len(a), s.Len(a))
		}
	}
}
