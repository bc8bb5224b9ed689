package model

import (
	"fmt"
	"strings"
)

// Schema is a relation schema R = (A1, ..., An): a relation name plus an
// ordered list of attribute names. Schemas are immutable after creation.
type Schema struct {
	name  string
	attrs []string
	index map[string]int
}

// NewSchema builds a schema. Attribute names must be non-empty and
// pairwise distinct.
func NewSchema(name string, attrs ...string) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("model: schema name must be non-empty")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("model: schema %q needs at least one attribute", name)
	}
	idx := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("model: schema %q has an empty attribute name at position %d", name, i)
		}
		if _, dup := idx[a]; dup {
			return nil, fmt.Errorf("model: schema %q has duplicate attribute %q", name, a)
		}
		idx[a] = i
	}
	return &Schema{name: name, attrs: append([]string(nil), attrs...), index: idx}, nil
}

// MustSchema is NewSchema but panics on error; intended for tests,
// examples and static schema definitions.
func MustSchema(name string, attrs ...string) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the relation name.
func (s *Schema) Name() string { return s.name }

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Attrs returns a copy of the attribute list in declaration order.
func (s *Schema) Attrs() []string { return append([]string(nil), s.attrs...) }

// Attr returns the name of the i-th attribute.
func (s *Schema) Attr(i int) string { return s.attrs[i] }

// Index returns the position of attribute a, or -1 if absent.
func (s *Schema) Index(a string) int {
	if i, ok := s.index[a]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains attribute a.
func (s *Schema) Has(a string) bool { _, ok := s.index[a]; return ok }

// String renders the schema as name(A1, A2, ...).
func (s *Schema) String() string {
	return s.name + "(" + strings.Join(s.attrs, ", ") + ")"
}

// Same reports structural equality: identical name and attribute list.
func (s *Schema) Same(o *Schema) bool {
	if s == o {
		return true
	}
	if o == nil || s.name != o.name || len(s.attrs) != len(o.attrs) {
		return false
	}
	for i, a := range s.attrs {
		if o.attrs[i] != a {
			return false
		}
	}
	return true
}

// Tuple is a tuple of one schema: a dense slice of values aligned with
// the schema's attributes. Tuples are mutable; the chase never mutates
// instance tuples, only target templates.
//
// A tuple can carry a cached dictionary-ID row alongside its values
// (Resolve, SetAtID): rows decoded against a base dictionary carry the
// base's IDs, and candidate templates assembled by the top-k search
// carry their grounding's, so the thousands of chase checks they feed
// skip all value hashing. The cache is tagged with the Dict it refers
// to — IDs from one dictionary are meaningless in another — and
// SetAt/Set keep it coherent by invalidating the touched position.
type Tuple struct {
	schema *Schema
	vals   []Value
	dict   *Dict    // dictionary the cached IDs belong to; nil = no cache
	ids    []uint32 // aligned with vals when dict != nil; NoID = not cached
}

// NewTuple creates a tuple of the given schema with every attribute null.
func NewTuple(s *Schema) *Tuple {
	return &Tuple{schema: s, vals: make([]Value, s.Arity())}
}

// TupleOf creates a tuple from explicit values; len(vals) must equal the
// schema arity.
func TupleOf(s *Schema, vals ...Value) (*Tuple, error) {
	if len(vals) != s.Arity() {
		return nil, fmt.Errorf("model: tuple for %s needs %d values, got %d", s.Name(), s.Arity(), len(vals))
	}
	return &Tuple{schema: s, vals: append([]Value(nil), vals...)}, nil
}

// MustTuple is TupleOf but panics on error.
func MustTuple(s *Schema, vals ...Value) *Tuple {
	t, err := TupleOf(s, vals...)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the tuple's schema.
func (t *Tuple) Schema() *Schema { return t.schema }

// At returns the value at attribute position i.
func (t *Tuple) At(i int) Value { return t.vals[i] }

// SetAt overwrites the value at attribute position i. A cached ID row
// stays coherent: the touched position is re-derived for null (whose ID
// is fixed) and invalidated otherwise.
func (t *Tuple) SetAt(i int, v Value) {
	t.vals[i] = v
	if t.dict != nil {
		if v.IsNull() {
			t.ids[i] = NullID
		} else {
			t.ids[i] = NoID
		}
	}
}

// SetAtID overwrites position i with v together with its ID in d, so a
// later IDIn(d, i) is a cache hit. A cache tagged with a different
// dictionary is discarded first: mixed-dictionary rows would alias
// unrelated values.
func (t *Tuple) SetAtID(i int, v Value, d *Dict, id uint32) {
	t.vals[i] = v
	if t.dict != d {
		t.dict = d
		t.ids = make([]uint32, len(t.vals))
		for j := range t.ids {
			t.ids[j] = NoID
		}
	}
	t.ids[i] = id
}

// Resolve caches the ID in d of every value d holds and marks every
// other position as missing from d, so an overlay of d interns it
// without probing d again (Dict.InternAt). It never interns, and
// returns t for chaining.
func (t *Tuple) Resolve(d *Dict) *Tuple {
	if t.dict != d || t.ids == nil {
		t.dict = d
		t.ids = make([]uint32, len(t.vals))
	}
	for i, v := range t.vals {
		id, ok := d.Lookup(v)
		if !ok {
			id = missID
		}
		t.ids[i] = id
	}
	return t
}

// IDIn returns the cached ID of position i relative to d; ok is false
// when the cache is absent, stale, marks the value missing, or is
// tagged with another dictionary.
func (t *Tuple) IDIn(d *Dict, i int) (uint32, bool) {
	if t.dict != d || t.dict == nil {
		return 0, false
	}
	id := t.ids[i]
	return id, id < missID
}

// Unresolved returns how many of t's positions its cached ID row does
// not resolve against d: those Resolve marked missing, and every
// position when the row is absent or tagged with another dictionary.
func (t *Tuple) Unresolved(d *Dict) int {
	if t.dict != d || t.dict == nil {
		return len(t.vals)
	}
	n := 0
	for _, id := range t.ids {
		if id >= missID {
			n++
		}
	}
	return n
}

// Detach drops the cached ID row, so t no longer keeps a dictionary
// reachable, and returns t.
func (t *Tuple) Detach() *Tuple {
	t.dict, t.ids = nil, nil
	return t
}

// Get returns the value of the named attribute; the second result is
// false if the attribute does not exist.
func (t *Tuple) Get(attr string) (Value, bool) {
	i := t.schema.Index(attr)
	if i < 0 {
		return Value{}, false
	}
	return t.vals[i], true
}

// Set assigns the named attribute; it reports whether the attribute
// exists.
func (t *Tuple) Set(attr string, v Value) bool {
	i := t.schema.Index(attr)
	if i < 0 {
		return false
	}
	t.SetAt(i, v)
	return true
}

// Clone returns a deep copy of the tuple, cached ID row included.
func (t *Tuple) Clone() *Tuple {
	out := &Tuple{schema: t.schema, vals: append([]Value(nil), t.vals...), dict: t.dict}
	if t.ids != nil {
		out.ids = append([]uint32(nil), t.ids...)
	}
	return out
}

// Complete reports whether no attribute is null.
func (t *Tuple) Complete() bool {
	for _, v := range t.vals {
		if v.IsNull() {
			return false
		}
	}
	return true
}

// NullAttrs returns the positions of null attributes in ascending order.
func (t *Tuple) NullAttrs() []int {
	var out []int
	for i, v := range t.vals {
		if v.IsNull() {
			out = append(out, i)
		}
	}
	return out
}

// EqualTo reports whether u has a structurally identical schema and
// Equal values in every position.
func (t *Tuple) EqualTo(u *Tuple) bool {
	if !t.schema.Same(u.schema) || len(t.vals) != len(u.vals) {
		return false
	}
	for i := range t.vals {
		if !t.vals[i].Equal(u.vals[i]) {
			return false
		}
	}
	return true
}

// Key returns a map key identifying the tuple's values.
func (t *Tuple) Key() string {
	var b strings.Builder
	for i, v := range t.vals {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(v.Key())
	}
	return b.String()
}

// String renders the tuple as (v1, v2, ...).
func (t *Tuple) String() string {
	parts := make([]string, len(t.vals))
	for i, v := range t.vals {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
