package chase

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/rule"
	"repro/internal/vcache"
)

// Shared is the instance-independent groundwork of a specification: the
// rule set validated against one (entity schema, master schema) pair,
// the compiled form-(2) index for that schema, master relation and rule
// set, and the schema-scoped value dictionary every grounding stamped
// from it interns into. Batch pipelines that chase many entity
// instances of the same relation build it once and stamp per-entity
// Groundings out of it, skipping rule re-validation and the
// O(‖Σ‖·|Im|) form-(2) compilation on every entity — and sharing one
// dictionary, so a value seen by any entity is hashed once per batch,
// not once per entity.
//
// A Shared is immutable after construction — except the dictionary,
// which is append-only and internally synchronised — and safe for
// concurrent use by any number of goroutines.
type Shared struct {
	schema *model.Schema
	im     *model.MasterRelation
	rules  *rule.Set
	form2  *form2Index
	dict   *model.Dict
}

// NewShared validates the rules against the schemas and precompiles the
// form-(2) index into a dictionary of its own; nothing is cached across
// calls, so callers that ground many entities build one Shared and keep
// it. im may be nil when the rule set has no form-(2) rules.
func NewShared(schema *model.Schema, im *model.MasterRelation, rules *rule.Set) (*Shared, error) {
	if schema == nil {
		return nil, fmt.Errorf("chase: shared groundwork needs an entity schema")
	}
	var rm *model.Schema
	if im != nil {
		rm = im.Schema()
	}
	for _, r := range rules.Rules() {
		if err := r.Validate(schema, rm); err != nil {
			return nil, err
		}
	}
	// The form-(2) index's trigger keys embed IDs of this groundwork's
	// own dictionary, so the two are built together and never shared.
	sh := &Shared{schema: schema, im: im, rules: rules,
		form2: &form2Index{trig: make(map[uint64][]form2Entry)}, dict: model.NewDict()}
	if im != nil {
		for _, r := range rules.Rules() {
			if f, ok := r.(*rule.Form2); ok {
				sh.form2.ground(schema, im, f, sh.dict)
			}
		}
	}
	return sh, nil
}

// Dict returns the groundwork's value dictionary.
func (sh *Shared) Dict() *model.Dict { return sh.dict }

// Schema returns the entity schema the groundwork was built for.
func (sh *Shared) Schema() *model.Schema { return sh.schema }

// Master returns the master relation (possibly nil).
func (sh *Shared) Master() *model.MasterRelation { return sh.im }

// Rules returns the validated rule set.
func (sh *Shared) Rules() *rule.Set { return sh.rules }

// NewGrounding grounds one entity instance on the shared groundwork:
// the per-instance Instantiation (pair grounding, value indexing) and
// base chase still run, but validation and the form-(2) index are
// reused. The instance must use the exact schema the Shared was built
// for (pointer identity, as everywhere in package model).
//
//relacc:grounding-builder
func (sh *Shared) NewGrounding(ie *model.EntityInstance, opts Options) (*Grounding, error) {
	if ie == nil {
		return nil, fmt.Errorf("chase: specification has no entity instance")
	}
	if ie.Schema() != sh.schema {
		return nil, fmt.Errorf("chase: instance schema %s is not the shared schema %s",
			ie.Schema().Name(), sh.schema.Name())
	}
	if ie.Size() >= maxTuples {
		return nil, fmt.Errorf("chase: instance holds %d tuples, limit is %d", ie.Size(), maxTuples-1)
	}
	g := &Grounding{
		ie:        ie,
		im:        sh.im,
		rules:     sh.rules,
		schema:    sh.schema,
		n:         ie.Size(),
		nattr:     sh.schema.Arity(),
		useAxioms: !opts.DisableAxioms,
		orderTrig: make(map[uint64][]predRef),
		form2:     sh.form2,
		dict:      sh.dict,
	}
	if !opts.DisableVerdictCache {
		g.verdicts = vcache.New[verdictEntry](opts.VerdictCacheCap)
	}
	g.indexValues()
	zero := g.ground()
	g.hasOrderTrig = len(g.orderTrig) > 0
	g.baseChase(zero)
	return g, nil
}
