// Package model is a miniature stand-in for repro/internal/model: just
// a Dict with the real one's insert and lookup, so the groundingmut
// fixtures can fake overlay inserts by their real import path.
package model

// Dict mimics a value dictionary: a read-only base, or an entity's
// overlay that grounding builders insert into.
type Dict struct{ ids map[int]uint32 }

// Tuple mimics a tuple carrying a cached ID row.
type Tuple struct{ vals []int }

// InternAt inserts t's value at position i.
func (d *Dict) InternAt(t *Tuple, i int) uint32 {
	if id, ok := d.ids[t.vals[i]]; ok {
		return id
	}
	d.ids[t.vals[i]] = uint32(len(d.ids))
	return d.ids[t.vals[i]]
}

// internRow inserts a whole row: package model implements the insert,
// so its own calls are never flagged.
func (d *Dict) internRow(t *Tuple) {
	for i := range t.vals {
		d.InternAt(t, i)
	}
}

// Lookup reads without inserting.
func (d *Dict) Lookup(v int) (uint32, bool) {
	id, ok := d.ids[v]
	return id, ok
}

var _ = (*Dict).internRow
