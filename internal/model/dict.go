package model

import (
	"hash/maphash"
	"math"
	"sync"
)

// NullID is the reserved dictionary ID of the null value. Every Dict is
// born with null interned at ID 0, so "id == NullID" is the ID-level
// null test and a zeroed ID buffer reads as an all-null row.
const NullID uint32 = 0

// NoID is the sentinel marking an absent cached ID (see Tuple). It is
// never a valid dictionary ID: a Dict refuses to grow that far.
const NoID = ^uint32(0)

// missID marks, in a tuple's cached ID row, a value the tagged
// dictionary did not hold when the row was resolved (Tuple.Resolve).
// Like NoID it is never a valid ID; unlike NoID it tells an overlay of
// that dictionary to skip the base probe (Dict.InternAt).
const missID = NoID - 1

// Dict is a dictionary interning attribute values as dense uint32 IDs.
// Two values receive the same ID exactly when their canonical forms
// (Value.Norm) coincide — the same equivalence Key and the chase's
// value grouping already use — so ID equality substitutes for
// Value.Equal everywhere the chase compares values. The deliberate
// divergences from Equal are those of Norm/Key themselves: NaN folds
// into a single class (Equal follows IEEE and rejects it), and int64
// magnitudes beyond float64 precision collide with their float
// neighbours, exactly as their Key strings always have (see Norm and
// Key).
//
// A Dict is a base or an overlay. A base (NewDict) holds a fixed set
// of values and is never written after construction, so any number of
// goroutines read it with no synchronisation. An overlay (Overlay)
// extends one base with the values it lacks: IDs below the base's size
// are the base's own, and InternAt appends every other value after them.
// An overlay's own values sit behind a mutex; a lookup that the base
// answers never takes it.
//
// Base and overlay share one representation: an open-addressing table
// over Norm values (table). A lookup hashes the canonical value once
// and probes the base's table and then, on a miss, the overlay's.
//
// IDs are append-only: an ID, once assigned, is never reassigned or
// removed, so IDs cached from an overlay stay valid for as long as the
// overlay lives (chase.Grounding.Extend relies on this — see DESIGN.md
// invariant 3a).
type Dict struct {
	base *Dict // the base an overlay extends; nil for a base
	tab  table // this dictionary's own values

	mu sync.Mutex // overlays only: guards tab
}

// table is an open-addressing hash table over canonical values. vals
// lists the values in ID order, vals[k] holding ID first+k, so IDs are
// dense and issued in first-insert order. slots is a power-of-two array
// probed linearly from a value's hash; a slot holds the upper half of
// the hash (a tag that settles most mismatches without reading vals) and
// the ID, and 0 marks it empty — null is never stored in a table (its
// ID is NullID in every dictionary), so no stored ID is 0.
type table struct {
	slots []uint64
	vals  []entry
	first uint32
}

// entry is a canonical value as a table stores it: two-thirds the size
// of a Value, since a Norm value is a string, a float or a boolean.
// Equal entries are exactly equal Norms.
type entry struct {
	s    string // String: the string
	bits uint64 // Float: math.Float64bits; Bool: 0 false, 1 true, 2 the NaN class
	kind Kind   // String, Float or Bool; Null only for a base's ID 0
}

// entryOf returns the entry of v's Norm class, folding as Norm does:
// an int into the float it converts to, −0 into +0, every NaN — and
// the Bool-kinded sentinel Norm turns NaN into — into one class.
func entryOf(v Value) entry {
	switch v.kind {
	case String:
		return entry{s: v.s, kind: String}
	case Int:
		return entry{bits: math.Float64bits(float64(v.i)), kind: Float}
	case Float:
		switch f := v.f; {
		case f != f:
			return entry{bits: 2, kind: Bool}
		case f == 0:
			return entry{kind: Float}
		default:
			return entry{bits: math.Float64bits(f), kind: Float}
		}
	case Bool:
		switch {
		case v.s != "":
			return entry{bits: 2, kind: Bool}
		case v.b:
			return entry{bits: 1, kind: Bool}
		}
		return entry{kind: Bool}
	}
	return entry{}
}

// minSlots is the smallest table a dictionary allocates.
const minSlots = 8

// hashSeed seeds the string hash of every table. One seed per process
// serves all of them, so an overlay probes its base with the hash it
// computed for its own table.
var hashSeed = maphash.MakeSeed()

// hash hashes an entry per kind: a string through hash/maphash, a
// float's bits (every number, after Norm) and a boolean — the NaN class
// among them — by mixing them.
func (e entry) hash() uint64 {
	if e.kind == String {
		return maphash.String(hashSeed, e.s)
	}
	return mix64(e.bits ^ uint64(e.kind)<<56)
}

// mix64 is the 64-bit finaliser of MurmurHash3: every input bit
// affects every output bit, so the low bits that pick a slot and the
// high bits that form the tag are both well spread.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// next returns the ID the table would issue next.
func (t *table) next() uint32 { return t.first + uint32(len(t.vals)) }

// find returns the ID of the entry nv, whose hash is h.
func (t *table) find(nv entry, h uint64) (uint32, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	tag := h >> 32
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if s>>32 == tag {
			if id := uint32(s); t.vals[id-t.first] == nv {
				return id, true
			}
		}
	}
}

// add appends the entry nv, which the table lacks, and returns its new
// ID. The table doubles before it is three quarters full.
func (t *table) add(nv entry, h uint64) uint32 {
	id := t.next()
	if id >= missID {
		panic("model: dictionary overflow (2³²-2 distinct values)")
	}
	t.vals = append(t.vals, nv)
	if 4*(len(t.vals)+1) > 3*len(t.slots) {
		t.rehash(2 * len(t.vals))
	} else {
		t.place(id, h)
	}
	return id
}

// rehash rebuilds slots with room for at least n values.
func (t *table) rehash(n int) {
	size := minSlots
	for 3*size < 4*(n+1) {
		size *= 2
	}
	t.slots = make([]uint64, size)
	for k, e := range t.vals {
		if e.kind != Null {
			t.place(t.first+uint32(k), e.hash())
		}
	}
}

// place stores id, whose value hashes to h, in the first free slot of
// its probe sequence.
func (t *table) place(id uint32, h uint64) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = h>>32<<32 | uint64(id)
}

// NewDict creates a base dictionary holding null (as NullID) and vals,
// IDs assigned in order of first occurrence. A base is read-only.
func NewDict(vals ...Value) *Dict {
	d := &Dict{}
	d.tab.vals = make([]entry, 1, 1+len(vals)) // vals[0]: null, ID 0
	d.tab.rehash(len(vals))
	for _, v := range vals {
		nv := entryOf(v)
		if nv.kind == Null {
			continue
		}
		h := nv.hash()
		if _, ok := d.tab.find(nv, h); !ok {
			d.tab.add(nv, h)
		}
	}
	return d
}

// Overlay creates an empty overlay over the base d. Its table is
// allocated by the first value it interns, sized by Grow when the
// caller knows how many values to expect, and doubles from there.
func (d *Dict) Overlay() *Dict {
	if d.base != nil {
		panic("model: an overlay of an overlay")
	}
	return &Dict{base: d, tab: table{first: d.tab.next()}}
}

// Grow makes room in the overlay d for n more values, so that many
// inserts neither reallocate its values nor rehash its table; it never
// shrinks them, and a base ignores it.
func (d *Dict) Grow(n int) {
	if d.base == nil || n <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	want := len(d.tab.vals) + n
	if cap(d.tab.vals) < want {
		d.tab.vals = append(make([]entry, 0, want), d.tab.vals...)
	}
	if 4*(want+1) > 3*len(d.tab.slots) {
		d.tab.rehash(want)
	}
}

// Size returns the number of values d resolves, null and an overlay's
// base included.
func (d *Dict) Size() int {
	if d.base == nil {
		return int(d.tab.next())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.tab.next())
}

// Lookup returns the ID of v if some Equal value is in d (null always
// is). It never interns.
func (d *Dict) Lookup(v Value) (uint32, bool) {
	nv := entryOf(v)
	if nv.kind == Null {
		return NullID, true
	}
	h := nv.hash()
	if d.base == nil {
		return d.tab.find(nv, h)
	}
	if id, ok := d.base.tab.find(nv, h); ok {
		return id, true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tab.find(nv, h)
}

// InternAt writes into ids the ID in the overlay d of position i of
// every tuple of ts, appending each value neither the base nor the
// overlay holds an Equal one of. A row cached against d or its base
// answers without a probe, and a position the row marks as missing
// from either (Tuple.Resolve) skips the base probe. It takes the
// overlay's lock once and interns in the order of ts, so IDs are issued
// in that order. InternAt is the one insert a Dict has; it panics on a
// base.
func (d *Dict) InternAt(ts []*Tuple, i int, ids []uint32) {
	if d.base == nil {
		panic("model: InternAt on a base dictionary")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for k, t := range ts {
		if t.dict != nil && (t.dict == d || t.dict == d.base) {
			switch id := t.ids[i]; id {
			case missID:
				nv := entryOf(t.vals[i])
				ids[k] = d.ownLocked(nv, nv.hash())
				continue
			case NoID:
			default:
				ids[k] = id
				continue
			}
		}
		ids[k] = d.valueLocked(entryOf(t.vals[i]))
	}
}

// valueLocked returns the ID of the entry nv in the overlay d, whose
// lock the caller holds, appending nv when neither the base nor the
// overlay holds it.
func (d *Dict) valueLocked(nv entry) uint32 {
	if nv.kind == Null {
		return NullID
	}
	h := nv.hash()
	if id, ok := d.base.tab.find(nv, h); ok {
		return id
	}
	return d.ownLocked(nv, h)
}

// ownLocked interns the entry nv, whose hash is h and which the base
// lacks, into the overlay d, whose lock the caller holds.
func (d *Dict) ownLocked(nv entry, h uint64) uint32 {
	if id, ok := d.tab.find(nv, h); ok {
		return id
	}
	return d.tab.add(nv, h)
}
