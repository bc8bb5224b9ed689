package model

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// internAt interns position i of the one tuple t into d.
func internAt(d *Dict, t *Tuple, i int) uint32 {
	var id [1]uint32
	d.InternAt([]*Tuple{t}, i, id[:])
	return id[0]
}

// intern returns the ID of v in the overlay d, appending v when neither
// the base nor the overlay holds an Equal value.
func (d *Dict) intern(v Value) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.valueLocked(entryOf(v))
}

func TestDictNullIsZero(t *testing.T) {
	d := NewDict()
	if d.Size() != 1 {
		t.Fatalf("fresh dict holds %d values, want 1 (null)", d.Size())
	}
	if id, ok := d.Lookup(NullValue()); !ok || id != NullID {
		t.Fatalf("null lookup = (%d, %v), want (0, true)", id, ok)
	}
	if id := d.Overlay().intern(NullValue()); id != NullID {
		t.Fatalf("null interned as %d, want %d", id, NullID)
	}
}

func TestDictEqualValuesShareID(t *testing.T) {
	o := NewDict().Overlay()
	negZero := math.Copysign(0, -1)
	cases := [][2]Value{
		{I(3), F(3)},           // numeric cross-kind equality
		{F(0), F(negZero)},     // signed zeros
		{S("x"), S("x")},       // plain strings
		{B(true), B(true)},     // booleans
		{Parse("2.5"), F(2.5)}, // parse agrees with constructor
	}
	for i, c := range cases {
		a, b := o.intern(c[0]), o.intern(c[1])
		if a != b {
			t.Fatalf("case %d: %s and %s interned as %d and %d", i, c[0].Quote(), c[1].Quote(), a, b)
		}
		if d := NewDict(c[0], c[1]); d.Size() != 2 {
			t.Fatalf("case %d: a base over %s and %s holds %d values, want 2", i, c[0].Quote(), c[1].Quote(), d.Size())
		}
	}
}

func TestDictDistinctValuesGetDistinctIDs(t *testing.T) {
	o := NewDict().Overlay()
	vals := []Value{S("a"), S("b"), I(1), I(2), F(1.5), B(true), B(false), S("1"), S("true")}
	seen := map[uint32]Value{NullID: NullValue()}
	for _, v := range vals {
		id := o.intern(v)
		if prev, dup := seen[id]; dup {
			t.Fatalf("%s and %s share ID %d", prev.Quote(), v.Quote(), id)
		}
		seen[id] = v
	}
	if o.Size() != len(vals)+1 {
		t.Fatalf("dict holds %d values, want %d", o.Size(), len(vals)+1)
	}
}

// TestDictBaseIsReadOnly: a base assigns IDs in first-occurrence order
// at construction and refuses every insert afterwards.
func TestDictBaseIsReadOnly(t *testing.T) {
	d := NewDict(S("a"), I(2), S("a"), F(2), S("b"))
	for i, v := range []Value{NullValue(), S("a"), I(2), S("b")} {
		if id, ok := d.Lookup(v); !ok || id != uint32(i) {
			t.Fatalf("%s = (%d, %v), want (%d, true)", v.Quote(), id, ok, i)
		}
	}
	if _, ok := d.Lookup(S("c")); ok {
		t.Fatal("a base resolved a value it was not built with")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("InternAt on a base did not panic")
			}
		}()
		internAt(d, MustTuple(MustSchema("R", "a"), S("c")), 0)
	}()
	if d.Size() != 4 {
		t.Fatalf("base holds %d values after refused inserts, want 4", d.Size())
	}
}

// TestDictOverlaysOverOneBase: an overlay resolves its base's values to
// the base's IDs, numbers its own values after them, and never sees a
// sibling overlay's values or changes the base.
func TestDictOverlaysOverOneBase(t *testing.T) {
	d := NewDict(S("m1"), S("m2"))
	o1, o2 := d.Overlay(), d.Overlay()
	if id := o1.intern(S("m2")); id != 2 {
		t.Fatalf("base value m2 interned into an overlay as %d, want its base ID 2", id)
	}
	if id := o1.intern(S("own")); id != 3 {
		t.Fatalf("first overlay value got ID %d, want 3", id)
	}
	if _, ok := o2.Lookup(S("own")); ok {
		t.Fatal("an overlay resolved its sibling's value")
	}
	if _, ok := d.Lookup(S("own")); ok || d.Size() != 3 {
		t.Fatalf("an overlay insert reached the base (size %d)", d.Size())
	}
	if o1.Size() != 4 || o2.Size() != 3 {
		t.Fatalf("overlay sizes %d and %d, want 4 and 3", o1.Size(), o2.Size())
	}
}

func TestDictAppendOnly(t *testing.T) {
	o := NewDict().Overlay()
	const n = 10_000
	ids := make([]uint32, n)
	for i := 0; i < n; i++ {
		ids[i] = o.intern(S(fmt.Sprintf("v%d", i)))
	}
	// Every earlier ID must survive every later append (the version
	// stability chase.Grounding.Extend depends on).
	for i := 0; i < n; i++ {
		if got := o.intern(S(fmt.Sprintf("v%d", i))); got != ids[i] {
			t.Fatalf("value %d re-interned as %d, first saw %d", i, got, ids[i])
		}
		if got, ok := o.Lookup(S(fmt.Sprintf("v%d", i))); !ok || got != ids[i] {
			t.Fatalf("value %d looked up as (%d, %v), interned as %d", i, got, ok, ids[i])
		}
	}
}

// TestDictConcurrentIntern exercises one overlay under the race
// detector the way two Extends of one grounding version and a reader
// use it: all goroutines must agree on every value's ID while interning
// overlapping and fresh value sets and looking values up.
func TestDictConcurrentIntern(t *testing.T) {
	o := NewDict(S("base")).Overlay()
	const workers, per = 8, 500
	got := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint32, 0, 2*per)
			for i := 0; i < per; i++ {
				ids = append(ids, o.intern(S(fmt.Sprintf("shared%d", i)))) // contended
				ids = append(ids, o.intern(I(int64(w*per+i))))             // private
				if id, ok := o.Lookup(S(fmt.Sprintf("shared%d", i))); !ok || id != ids[len(ids)-2] {
					panic("lookup disagrees with intern")
				}
				if id, ok := o.Lookup(S("base")); !ok || id != 1 {
					panic("base lookup through the overlay failed")
				}
			}
			got[w] = ids
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := 0; i < per; i++ {
			if got[w][2*i] != got[0][2*i] {
				t.Fatalf("worker %d saw shared%d as %d, worker 0 saw %d", w, i, got[w][2*i], got[0][2*i])
			}
		}
	}
	if want := 2 + per + workers*per; o.Size() != want {
		t.Fatalf("dict holds %d values, want %d", o.Size(), want)
	}
}

func TestTupleIDRow(t *testing.T) {
	s := MustSchema("R", "a", "b", "c", "d")
	d := NewDict(S("x"), I(7))
	tu := MustTuple(s, S("x"), I(7), NullValue(), S("new")).Resolve(d)
	for i, v := range []Value{S("x"), I(7), NullValue()} {
		id, ok := tu.IDIn(d, i)
		if want, _ := d.Lookup(v); !ok || id != want {
			t.Fatalf("position %d cached (%d, %v), base says %d", i, id, ok, want)
		}
	}
	if _, ok := tu.IDIn(d, 3); ok {
		t.Fatal("a value the base lacks reads as cached")
	}
	// An overlay takes the base IDs from the row and interns the miss.
	o := d.Overlay()
	for i := 0; i < 3; i++ {
		if got, want := internAt(o, tu, i), tu.ids[i]; got != want {
			t.Fatalf("InternAt(%d) = %d, row caches %d", i, got, want)
		}
	}
	newID := internAt(o, tu, 3)
	if id, ok := o.Lookup(S("new")); !ok || id != newID || newID != 3 {
		t.Fatalf("missing value interned as %d, lookup (%d, %v), want 3", newID, id, ok)
	}
	if _, ok := d.Lookup(S("new")); ok {
		t.Fatal("InternAt wrote the base")
	}
	// A row tagged with another dictionary is ignored.
	foreign := MustTuple(s, S("y"), I(8), NullValue(), S("new")).Resolve(NewDict(S("y"), I(8)))
	if got := internAt(o, foreign, 0); got == foreign.ids[0] {
		t.Fatalf("InternAt trusted a foreign row's ID %d", got)
	}
	if got := internAt(o, foreign, 3); got != newID {
		t.Fatalf("InternAt(foreign, 3) = %d, want the overlay's %d", got, newID)
	}
	// SetAt invalidates (non-null) or fixes up (null).
	tu.SetAt(0, S("y"))
	if _, ok := tu.IDIn(d, 0); ok {
		t.Fatal("stale ID survived SetAt")
	}
	tu.SetAt(1, NullValue())
	if id, ok := tu.IDIn(d, 1); !ok || id != NullID {
		t.Fatalf("null SetAt cached (%d, %v), want (0, true)", id, ok)
	}
	// SetAtID re-validates; a different dict discards the whole row.
	yID := o.intern(S("y"))
	tu.SetAtID(0, S("y"), o, yID)
	if id, ok := tu.IDIn(o, 0); !ok || id != yID {
		t.Fatalf("SetAtID row = (%d, %v)", id, ok)
	}
	if _, ok := tu.IDIn(d, 1); ok {
		t.Fatal("cache for old dict answered after re-tagging")
	}
	// Clone carries the cache; Detach drops it.
	cl := tu.Clone()
	if id, ok := cl.IDIn(o, 0); !ok || id != yID {
		t.Fatal("clone lost the ID row")
	}
	cl.SetAt(0, S("w"))
	if _, ok := tu.IDIn(o, 0); !ok {
		t.Fatal("mutating the clone touched the original's row")
	}
	if tu.Detach(); tu.dict != nil || tu.ids != nil {
		t.Fatal("Detach kept the ID row")
	}
	if _, ok := tu.IDIn(o, 0); ok {
		t.Fatal("a detached tuple answered from its old row")
	}
}
