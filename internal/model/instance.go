package model

import (
	"fmt"
	"sort"
)

// EntityInstance is a set Ie of tuples of one schema that all refer to
// the same real-world entity. Tuples are addressed by index; the chase
// and the accuracy orders work on those indices.
type EntityInstance struct {
	schema *Schema
	tuples []*Tuple
}

// NewEntityInstance creates an empty instance of schema s.
func NewEntityInstance(s *Schema) *EntityInstance {
	return &EntityInstance{schema: s}
}

// Add appends a tuple; the tuple must belong to the instance's schema.
// It returns the tuple's index.
func (ie *EntityInstance) Add(t *Tuple) (int, error) {
	if t.Schema() != ie.schema {
		return 0, fmt.Errorf("model: tuple schema %s does not match instance schema %s",
			t.Schema().Name(), ie.schema.Name())
	}
	ie.tuples = append(ie.tuples, t)
	return len(ie.tuples) - 1, nil
}

// MustAdd is Add but panics on error.
func (ie *EntityInstance) MustAdd(t *Tuple) int {
	i, err := ie.Add(t)
	if err != nil {
		panic(err)
	}
	return i
}

// AddValues builds a tuple from vals and appends it.
func (ie *EntityInstance) AddValues(vals ...Value) (int, error) {
	t, err := TupleOf(ie.schema, vals...)
	if err != nil {
		return 0, err
	}
	return ie.Add(t)
}

// Schema returns the instance schema.
func (ie *EntityInstance) Schema() *Schema { return ie.schema }

// Size returns the number of tuples |Ie|.
func (ie *EntityInstance) Size() int { return len(ie.tuples) }

// Tuple returns the i-th tuple.
func (ie *EntityInstance) Tuple(i int) *Tuple { return ie.tuples[i] }

// Tuples returns the backing slice of tuples; callers must not mutate it.
func (ie *EntityInstance) Tuples() []*Tuple { return ie.tuples }

// Value returns tuple i's value at attribute position a.
func (ie *EntityInstance) Value(i, a int) Value { return ie.tuples[i].At(a) }

// Extend returns a new instance holding the receiver's tuples followed
// by more. The receiver is unchanged — groundings, sessions and
// checkers built on it keep reading it — and the tuples themselves are
// shared, not copied. Every appended tuple must belong to the
// instance's schema. A grounding reads its values from these shared
// tuples, so a tuple must not change once a grounding holds it.
func (ie *EntityInstance) Extend(more ...*Tuple) (*EntityInstance, error) {
	out := &EntityInstance{
		schema: ie.schema,
		tuples: make([]*Tuple, len(ie.tuples), len(ie.tuples)+len(more)),
	}
	copy(out.tuples, ie.tuples)
	for _, t := range more {
		if t == nil {
			return nil, fmt.Errorf("model: cannot extend instance with a nil tuple")
		}
		if _, err := out.Add(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Clone returns a deep copy of the instance.
func (ie *EntityInstance) Clone() *EntityInstance {
	out := NewEntityInstance(ie.schema)
	for _, t := range ie.tuples {
		out.tuples = append(out.tuples, t.Clone())
	}
	return out
}

// MasterRelation is an available master relation Im of schema Rm: a set
// of high-quality tuples used by form-(2) accuracy rules. Rm need not
// cover all attributes of the entity schema.
type MasterRelation struct {
	schema *Schema
	tuples []*Tuple
}

// NewMasterRelation creates an empty master relation of schema s.
func NewMasterRelation(s *Schema) *MasterRelation {
	return &MasterRelation{schema: s}
}

// Add appends a master tuple.
func (im *MasterRelation) Add(t *Tuple) error {
	if t.Schema() != im.schema {
		return fmt.Errorf("model: master tuple schema %s does not match %s",
			t.Schema().Name(), im.schema.Name())
	}
	im.tuples = append(im.tuples, t)
	return nil
}

// MustAdd is Add but panics on error.
func (im *MasterRelation) MustAdd(t *Tuple) {
	if err := im.Add(t); err != nil {
		panic(err)
	}
}

// AddValues builds a tuple from vals and appends it.
func (im *MasterRelation) AddValues(vals ...Value) error {
	t, err := TupleOf(im.schema, vals...)
	if err != nil {
		return err
	}
	return im.Add(t)
}

// Schema returns the master schema Rm.
func (im *MasterRelation) Schema() *Schema { return im.schema }

// Size returns |Im|. A nil master relation has size 0.
func (im *MasterRelation) Size() int {
	if im == nil {
		return 0
	}
	return len(im.tuples)
}

// Tuple returns the i-th master tuple.
func (im *MasterRelation) Tuple(i int) *Tuple { return im.tuples[i] }

// Tuples returns the backing slice; callers must not mutate it.
func (im *MasterRelation) Tuples() []*Tuple {
	if im == nil {
		return nil
	}
	return im.tuples
}

// Truncate returns a master relation holding only the first n tuples
// (or all of them if n exceeds the size). The tuples are shared, not
// copied; used by the ‖Im‖-scaling experiments.
func (im *MasterRelation) Truncate(n int) *MasterRelation {
	if im == nil {
		return nil
	}
	if n > len(im.tuples) {
		n = len(im.tuples)
	}
	return &MasterRelation{schema: im.schema, tuples: im.tuples[:n]}
}

// ActiveDomain returns the distinct non-null values appearing in the
// given attribute of the entity instance, plus the same attribute of the
// master relation when master covers it (matching by attribute name).
// The result is sorted by decreasing occurrence count in Ie, ties broken
// by value string, so callers obtain deterministic rankings. The counts
// returned alongside are the Ie occurrence counts (master-only values
// count 0).
func ActiveDomain(ie *EntityInstance, im *MasterRelation, attr string) ([]Value, []int) {
	type entry struct {
		v Value
		n int
	}
	byKey := map[string]*entry{}
	var order []string
	a := ie.Schema().Index(attr)
	if a >= 0 {
		for _, t := range ie.Tuples() {
			v := t.At(a)
			if v.IsNull() {
				continue
			}
			k := v.Key()
			if e, ok := byKey[k]; ok {
				e.n++
			} else {
				byKey[k] = &entry{v: v, n: 1}
				order = append(order, k)
			}
		}
	}
	if im != nil {
		if ma := im.Schema().Index(attr); ma >= 0 {
			for _, t := range im.Tuples() {
				v := t.At(ma)
				if v.IsNull() {
					continue
				}
				k := v.Key()
				if _, ok := byKey[k]; !ok {
					byKey[k] = &entry{v: v, n: 0}
					order = append(order, k)
				}
			}
		}
	}
	entries := make([]*entry, 0, len(order))
	for _, k := range order {
		entries = append(entries, byKey[k])
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].n != entries[j].n {
			return entries[i].n > entries[j].n
		}
		return entries[i].v.String() < entries[j].v.String()
	})
	vals := make([]Value, len(entries))
	counts := make([]int, len(entries))
	for i, e := range entries {
		vals[i] = e.v
		counts[i] = e.n
	}
	return vals, counts
}
