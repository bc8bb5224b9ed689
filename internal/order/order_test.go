package order

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddBasics(t *testing.T) {
	r := New(3)
	if r.Has(0, 1) {
		t.Fatalf("fresh relation should be empty")
	}
	added := r.Add(0, 1)
	if len(added) != 1 || added[0] != (Pair{0, 1}) {
		t.Fatalf("Add(0,1) = %v", added)
	}
	if !r.Has(0, 1) || r.Has(1, 0) {
		t.Errorf("Has wrong after Add")
	}
	if r.Add(0, 1) != nil {
		t.Errorf("re-adding should return nil")
	}
}

func TestAddTransitivity(t *testing.T) {
	r := New(4)
	r.Add(0, 1)
	r.Add(1, 2)
	if !r.Has(0, 2) {
		t.Errorf("transitive pair 0⪯2 missing")
	}
	added := r.Add(2, 3)
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
	if !r.TransitiveOK() {
		t.Errorf("closure violated")
	}
}

func TestReflexiveAdd(t *testing.T) {
	r := New(2)
	added := r.Add(0, 0)
	if len(added) != 1 || !r.Has(0, 0) {
		t.Errorf("reflexive add failed: %v", added)
	}
}

func TestMax(t *testing.T) {
	r := New(3)
	if r.Max() != -1 {
		t.Errorf("empty relation has no max")
	}
	r.Add(0, 2)
	if r.Max() != -1 {
		t.Errorf("partial order has no max yet")
	}
	r.Add(1, 2)
	if r.Max() != 2 {
		t.Errorf("Max = %d, want 2", r.Max())
	}
	if New(1).Max() != 0 {
		t.Errorf("singleton max should be 0")
	}
	if New(0).Max() != -1 {
		t.Errorf("empty-size relation max should be -1")
	}
}

func TestMutual(t *testing.T) {
	r := New(2)
	r.Add(0, 1)
	if r.Mutual(0, 1) {
		t.Errorf("one direction is not mutual")
	}
	r.Add(1, 0)
	if !r.Mutual(0, 1) || !r.Mutual(1, 0) {
		t.Errorf("Mutual failed")
	}
}

func TestSetCliqueAndBelow(t *testing.T) {
	r := New(5)
	r.SetClique32([]uint32{0, 1})
	r.SetClique32([]uint32{3, 4})
	r.SetBelow32([]uint32{3, 4}, []uint32{0, 1, 2})
	if !r.Has(0, 1) || !r.Has(1, 0) || !r.Has(0, 0) {
		t.Errorf("clique pairs missing")
	}
	if !r.Has(3, 2) || !r.Has(4, 0) {
		t.Errorf("below pairs missing")
	}
	if r.Has(2, 3) {
		t.Errorf("unexpected pair 2⪯3")
	}
	if !r.TransitiveOK() {
		t.Errorf("seed state must be closed")
	}
}

func TestAddAllTo(t *testing.T) {
	r := New(4)
	r.SetClique32([]uint32{1, 2}) // the value group
	var derived []Pair
	r.AddAllTo32([]uint32{1, 2}, func(i, j int) { derived = append(derived, Pair{i, j}) })
	for i := 0; i < 4; i++ {
		if !r.Has(i, 1) || !r.Has(i, 2) {
			t.Errorf("tuple %d should reach the group", i)
		}
	}
	if !r.TransitiveOK() {
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
	r := New(4)
	r.Add(1, 3)
	r.AddAllTo32([]uint32{1}, func(int, int) {})
	if !r.Has(0, 3) || !r.Has(2, 3) {
		t.Errorf("AddAllTo32 must propagate the group's successors")
	}
	if !r.TransitiveOK() {
		t.Errorf("closure violated")
	}
}

func TestCloneCopyFrom(t *testing.T) {
	r := New(3)
	r.Add(0, 1)
	c := r.Clone()
	c.Add(1, 2)
	if r.Has(1, 2) {
		t.Errorf("Clone aliases the original")
	}
	r2 := New(3)
	r2.CopyFrom(c)
	if !r2.Has(0, 2) {
		t.Errorf("CopyFrom lost pairs")
	}
}

func TestPairsLen(t *testing.T) {
	r := New(3)
	r.Add(0, 1)
	r.Add(1, 2)
	if r.Len() != 3 { // 0⪯1, 1⪯2, 0⪯2
		t.Errorf("Len = %d", r.Len())
	}
	if len(r.Pairs()) != 3 {
		t.Errorf("Pairs = %v", r.Pairs())
	}
}

func TestSet(t *testing.T) {
	s := NewSet(2, 3)
	if s.Attrs() != 2 || s.Size() != 3 {
		t.Errorf("shape wrong")
	}
	s.Attr(0).Add(0, 1)
	if s.Attr(1).Has(0, 1) {
		t.Errorf("attributes must be independent")
	}
	c := s.Clone()
	c.Attr(0).Add(1, 2)
	if s.Attr(0).Has(1, 2) {
		t.Errorf("Clone aliases")
	}
	if s.TotalPairs() != 1 {
		t.Errorf("TotalPairs = %d", s.TotalPairs())
	}
}

// TestClosureProperty: after any random sequence of Adds the relation is
// transitively closed, and Has(i,j) matches reachability in the inserted
// edge set.
func TestClosureProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		r := New(n)
		edges := make([][]bool, n)
		for i := range edges {
			edges[i] = make([]bool, n)
		}
		for k := 0; k < 12; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			r.Add(i, j)
			edges[i][j] = true
		}
		if !r.TransitiveOK() {
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
				if r.Has(i, j) != reach[i][j] {
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
		r := New(n)
		total := 0
		for k := 0; k < 10; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			before := countAll(r)
			added := r.Add(i, j)
			after := countAll(r)
			if after-before != len(added) {
				return false
			}
			total += len(added)
		}
		return total == countAll(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func countAll(r *Relation) int {
	c := 0
	for i := 0; i < r.Size(); i++ {
		for j := 0; j < r.Size(); j++ {
			if r.Has(i, j) {
				c++
			}
		}
	}
	return c
}

func TestLargeRelation(t *testing.T) {
	// Exercise multi-word bitset rows (n > 64).
	n := 200
	r := New(n)
	for i := 0; i < n-1; i++ {
		r.Add(i, i+1)
	}
	if !r.Has(0, n-1) {
		t.Errorf("chain closure missing")
	}
	for i := 0; i < n-1; i++ {
		if !r.Has(i, n-1) {
			t.Errorf("chain closure misses %d ⪯ %d", i, n-1)
		}
	}
	if r.Max() != n-1 {
		t.Errorf("Max = %d", r.Max())
	}
}

func TestBitIndexBeyondWordBoundary(t *testing.T) {
	// Regression test for the bit-index expression in Has/set: with
	// n > 64 the word offset is i*w + (j>>6); a misparse as
	// (i*w + j) >> 6 would address the wrong word. Exercise bits on both
	// sides of every word boundary.
	n := 130 // three words per row
	r := New(n)
	pairs := [][2]int{{0, 63}, {0, 64}, {0, 65}, {1, 127}, {1, 128}, {2, 129}, {129, 0}}
	for _, p := range pairs {
		r.Add(p[0], p[1])
	}
	for _, p := range pairs {
		if !r.Has(p[0], p[1]) {
			t.Errorf("Has(%d, %d) = false after Add", p[0], p[1])
		}
		if r.Word(p[0], p[1]>>6)>>(p[1]&63)&1 == 0 {
			t.Errorf("Word(%d, %d) lacks bit %d", p[0], p[1]>>6, p[1]&63)
		}
	}
	if got := r.Word(0, 1); got != 1|1<<1 {
		t.Errorf("Word(0, 1) = %#x, want bits 64 and 65 only", got)
	}
	// Spot-check neighbouring bits stayed clear (no closure links them).
	for _, p := range [][2]int{{0, 62}, {0, 66}, {1, 126}, {2, 128}, {128, 0}} {
		if r.Has(p[0], p[1]) {
			t.Errorf("Has(%d, %d) = true, never added", p[0], p[1])
		}
	}
}

func TestCloneTrackedResetFrom(t *testing.T) {
	n := 100
	base := New(n)
	base.Add(1, 2)
	base.Add(2, 3)

	r := base.CloneTracked()
	if got := r.DirtyRows(); got != 0 {
		t.Fatalf("fresh tracked clone has %d dirty rows", got)
	}
	r.Add(70, 80)
	r.Add(0, 1) // row 0 gains 1,2,3 by closure
	if r.DirtyRows() == 0 {
		t.Fatal("writes did not mark rows dirty")
	}
	r.ResetFrom(base)
	if got := r.DirtyRows(); got != 0 {
		t.Fatalf("ResetFrom left %d dirty rows", got)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Has(i, j) != base.Has(i, j) {
				t.Fatalf("after ResetFrom, (%d,%d): got %v want %v", i, j, r.Has(i, j), base.Has(i, j))
			}
		}
	}
	// The restored relation is reusable: diverge and restore again.
	r.AddAllTo32([]uint32{5}, func(int, int) {})
	r.SetClique32([]uint32{90, 91})
	r.SetBelow32([]uint32{10}, []uint32{11})
	r.ResetFrom(base)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Has(i, j) != base.Has(i, j) {
				t.Fatalf("second ResetFrom, (%d,%d): got %v want %v", i, j, r.Has(i, j), base.Has(i, j))
			}
		}
	}
}

func TestSetCloneTrackedResetFrom(t *testing.T) {
	base := NewSet(2, 70)
	base.Attr(0).Add(0, 1)
	base.Attr(1).Add(65, 66)

	s := base.CloneTracked()
	s.Attr(0).Add(2, 3)
	s.Attr(1).Add(0, 69)
	s.ResetFrom(base)
	for a := 0; a < 2; a++ {
		if got, want := s.Attr(a).Len(), base.Attr(a).Len(); got != want {
			t.Errorf("attr %d: Len = %d after reset, want %d", a, got, want)
		}
	}
	if s.Attr(0).Has(2, 3) || s.Attr(1).Has(0, 69) {
		t.Error("diverged pairs survived ResetFrom")
	}
}

// TestExtend: the append-row operation preserves every derived pair,
// leaves the receiver untouched, and the result composes with closure
// maintenance and dirty-row snapshots like any fresh relation.
func TestExtend(t *testing.T) {
	// Sizes straddling the 64-bit word boundary exercise the row
	// re-striding path.
	for _, n := range []int{3, 60, 64, 100} {
		for _, m := range []int{1, 7, 64} {
			r := New(n)
			rng := rand.New(rand.NewSource(int64(n*1000 + m)))
			for k := 0; k < 2*n; k++ {
				r.Add(rng.Intn(n), rng.Intn(n))
			}
			beforePairs := r.Pairs()
			ext := r.Extend(m)
			if ext.Size() != n+m {
				t.Fatalf("Extend(%d) of %d-relation has size %d", m, n, ext.Size())
			}
			for _, p := range beforePairs {
				if !ext.Has(p.From, p.To) {
					t.Fatalf("n=%d m=%d: pair (%d,%d) lost by Extend", n, m, p.From, p.To)
				}
			}
			if ext.Len() != r.Len() {
				t.Fatalf("n=%d m=%d: Extend added pairs: %d vs %d", n, m, ext.Len(), r.Len())
			}
			for i := n; i < n+m; i++ {
				for j := 0; j < n+m; j++ {
					if ext.Has(i, j) || ext.Has(j, i) {
						t.Fatalf("n=%d m=%d: new tuple %d has pairs", n, m, i)
					}
				}
			}
			// Mutating the extension must not leak into the receiver.
			ext.Add(n+m-1, 0)
			if r.Len() != len(beforePairs) {
				t.Fatalf("n=%d m=%d: Extend shares storage with the receiver", n, m)
			}
			if !ext.TransitiveOK() {
				t.Fatalf("n=%d m=%d: extension lost transitive closure", n, m)
			}
			// Dirty-row snapshots against the extended base behave as
			// against any base.
			snap := ext.CloneTracked()
			snap.Add(0, n+m-1)
			snap.ResetFrom(ext)
			for i := 0; i < n+m; i++ {
				for j := 0; j < n+m; j++ {
					if snap.Has(i, j) != ext.Has(i, j) {
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
	s.Attr(0).Add(0, 1)
	s.Attr(2).Add(3, 4)
	ext := s.Extend(2)
	if ext.Size() != 7 || ext.Attrs() != 3 {
		t.Fatalf("Extend shape: %d tuples, %d attrs", ext.Size(), ext.Attrs())
	}
	if !ext.Attr(0).Has(0, 1) || !ext.Attr(2).Has(3, 4) {
		t.Fatal("Set.Extend lost pairs")
	}
	if ext.TotalPairs() != s.TotalPairs() {
		t.Fatalf("Set.Extend pair counts: %d vs %d", ext.TotalPairs(), s.TotalPairs())
	}
}
