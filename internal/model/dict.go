package model

import "sync"

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
// IDs are append-only: an ID, once assigned, is never reassigned or
// removed, so IDs cached from an overlay stay valid for as long as the
// overlay lives (chase.Grounding.Extend relies on this — see DESIGN.md
// invariant 3a).
type Dict struct {
	base *Dict            // the base an overlay extends; nil for a base
	ids  map[Value]uint32 // Norm → ID of this dictionary's own values
	next uint32           // the next free ID

	mu sync.Mutex // overlays only: guards ids and next
}

// NewDict creates a base dictionary holding null (as NullID) and vals,
// IDs assigned in order of first occurrence. A base is read-only.
func NewDict(vals ...Value) *Dict {
	d := &Dict{ids: map[Value]uint32{{}: NullID}, next: NullID + 1}
	for _, v := range vals {
		nv := v.Norm()
		if _, ok := d.ids[nv]; !ok {
			d.add(nv)
		}
	}
	return d
}

// Overlay creates an empty overlay over the base d.
func (d *Dict) Overlay() *Dict {
	if d.base != nil {
		panic("model: an overlay of an overlay")
	}
	return &Dict{base: d, ids: make(map[Value]uint32), next: d.next}
}

// add assigns the next free ID to the canonical value nv.
func (d *Dict) add(nv Value) uint32 {
	id := d.next
	if id >= missID {
		panic("model: dictionary overflow (2³²-2 distinct values)")
	}
	d.ids[nv] = id
	d.next++
	return id
}

// Size returns the number of values d resolves, null and an overlay's
// base included.
func (d *Dict) Size() int {
	if d.base == nil {
		return int(d.next)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.next)
}

// Lookup returns the ID of v if some Equal value is in d (null always
// is). It never interns.
func (d *Dict) Lookup(v Value) (uint32, bool) {
	nv := v.Norm()
	if d.base == nil {
		id, ok := d.ids[nv]
		return id, ok
	}
	if id, ok := d.base.ids[nv]; ok {
		return id, true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id, ok := d.ids[nv]
	return id, ok
}

// internOwn interns the canonical value nv, which the base lacks, into
// the overlay d.
func (d *Dict) internOwn(nv Value) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[nv]; ok {
		return id
	}
	return d.add(nv)
}

// InternAt returns the ID in the overlay d of t's value at position i,
// appending the value when neither the base nor the overlay holds an
// Equal one. A row cached against d or its base answers without a
// probe, and a position the row marks as missing from either
// (Tuple.Resolve) skips the base probe. InternAt is the one insert a
// Dict has; it panics on a base.
func (d *Dict) InternAt(t *Tuple, i int) uint32 {
	if d.base == nil {
		panic("model: InternAt on a base dictionary")
	}
	if t.dict != nil && (t.dict == d || t.dict == d.base) {
		switch id := t.ids[i]; id {
		case missID:
			return d.internOwn(t.vals[i].Norm())
		case NoID:
		default:
			return id
		}
	}
	return d.intern(t.vals[i])
}

// intern returns the ID of v in the overlay d, appending v when neither
// the base nor the overlay holds an Equal value.
func (d *Dict) intern(v Value) uint32 {
	nv := v.Norm()
	if id, ok := d.base.ids[nv]; ok {
		return id
	}
	return d.internOwn(nv)
}
