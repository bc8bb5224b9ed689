package chase

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/rule"
)

// Shared is the instance-independent groundwork of a specification: the
// rule set validated against one (entity schema, master schema) pair,
// its form-(1) rules compiled against the entity schema, the compiled
// form-(2) index for that schema, master relation and rule set, and the
// base value dictionary of the schema. Batch pipelines that chase many
// entity instances of the same relation build it once and stamp
// per-entity Groundings out of it, skipping rule re-validation,
// form-(1) compilation and the O(‖Σ‖·|Im|) form-(2) compilation on
// every entity.
//
// The base dictionary is read-only once NewShared returns. It holds ⊥
// (model.Bottom), every rule constant, and every value of each master
// column an entity attribute names or a form-(2) rule reads — the
// values every entity may meet. Each grounding interns its own
// entity's other values into an overlay of the base that its Extend
// versions share, so the base never grows with the data. Correlation-
// shaped rules become corrRules indexed by their triggering attribute;
// every other form-(1) rule becomes a form1Rule whose comparisons are
// split by the tuples they read. Every grounding and every Extend
// version reads the same compiled rules.
//
// A Shared also carries one master column per entity attribute the
// master schema names, ranked for the top-k search on the first read
// (Grounding.MasterColumn) rather than here: deduce-only runs never
// pay for a ranking.
//
// A Shared is immutable after construction — except the master
// columns, each filled once under its own sync.Once — and safe for
// concurrent use by any number of goroutines.
type Shared struct {
	schema *model.Schema
	im     *model.MasterRelation
	form1  []form1Rule  // per-pair form-(1) rules, in rule-set order
	corrs  [][]corrRule // [fromAttr] correlation rules, in rule-set order
	// form2 grounds the form-(2) rules lazily: each (rule, master row)
	// pair waits on its first unmet condition, indexed by (attr, value
	// key); when te[attr] takes that exact value the entry advances to
	// its next unmet condition or fires. This keeps Instantiation
	// linear in |Im| without materialising a ground step per master
	// tuple, and target-assignment triggers O(matching rows) instead of
	// O(|Im|).
	form2  *form2Index
	dict   *model.Dict
	master []masterColumn // [attr]; nil without a master relation
	// rankAttrs lists, by rank slot, the attributes that some compiled
	// guard compares in order between two tuples (cmpRank); every
	// grounding ranks their values.
	rankAttrs []int32
	// empty is the grounding of the empty instance — no tuples, no
	// steps, no trigger layers — that every fresh grounding extends by
	// its whole instance. It carries only the Shared's compiled rules:
	// no value overlay and no verdict counters, so nothing of one entity
	// reaches another through it.
	empty *Grounding
}

// MasterValue is one entry of a ranked master column: a distinct
// master value, its Key and its base dictionary ID, computed once.
type MasterValue struct {
	Value model.Value
	Key   string
	ID    uint32
}

// masterColumn is one entity attribute's master column, ranked on
// first use.
type masterColumn struct {
	ma     int // master schema position; -1 when the master lacks the attribute
	once   sync.Once
	ranked []MasterValue
}

// rankMaster ranks master column ma as model.ActiveDomain orders the
// values an instance does not carry: one entry per Norm class, the
// first master row's value representing it, by String ascending with
// ties in master row order. d resolves every value to its base ID: it
// is the base dictionary or an overlay of it.
func rankMaster(im *model.MasterRelation, ma int, d *model.Dict) []MasterValue {
	seen := make(map[model.Value]struct{})
	var vals []model.Value
	var strs []string
	for _, t := range im.Tuples() {
		v := t.At(ma)
		if v.IsNull() {
			continue
		}
		nv := v.Norm()
		if _, dup := seen[nv]; dup {
			continue
		}
		seen[nv] = struct{}{}
		vals = append(vals, v)
		strs = append(strs, v.String())
	}
	idx := make([]int32, len(vals))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(x, y int) bool {
		if sx, sy := strs[idx[x]], strs[idx[y]]; sx != sy {
			return sx < sy
		}
		return idx[x] < idx[y]
	})
	out := make([]MasterValue, len(idx))
	for i, k := range idx {
		out[i] = MasterValue{Value: vals[k], Key: vals[k].Key(), ID: baseID(d, vals[k])}
	}
	return out
}

// NewShared validates the rules against the schemas, builds the base
// dictionary, and compiles the form-(1) rules and the form-(2) index
// against it; nothing is cached across calls, so callers that ground
// many entities build one Shared and keep it. im may be nil when the
// rule set has no form-(2) rules.
//
//relacc:grounding-builder
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
	var master []masterColumn
	if im != nil {
		master = make([]masterColumn, schema.Arity())
		for a := range master {
			master[a].ma = rm.Index(schema.Attr(a))
		}
	}
	// The form-(2) index's trigger keys and the compiled premises embed
	// IDs of this groundwork's own base, so the two are built together
	// and never shared.
	sh := &Shared{schema: schema, im: im,
		corrs:  make([][]corrRule, schema.Arity()),
		form2:  &form2Index{trig: make(map[uint64][]form2Entry)},
		dict:   model.NewDict(baseValues(im, rules, master)...),
		master: master}
	for _, r := range rules.Rules() {
		switch f := r.(type) {
		case *rule.Form1:
			if cr, ok := sh.compileCorr(f); ok {
				sh.corrs[cr.fromAttr] = append(sh.corrs[cr.fromAttr], cr)
			} else {
				sh.form1 = append(sh.form1, sh.compileForm1(f))
			}
		case *rule.Form2:
			if im != nil {
				sh.form2.ground(schema, im, f, sh.dict)
			}
		}
	}
	// Version -1, so the fresh grounding that extends it is version 0.
	sh.empty = &Grounding{sh: sh, nattr: schema.Arity(),
		baseOrders: order.NewSet(schema.Arity(), 0), version: -1}
	sh.empty.layout(0, 0)
	return sh, nil
}

// baseValues lists the values of a Shared's base dictionary: ⊥, every
// rule constant, then every value of the master columns that an entity
// attribute names (master) or a form-(2) rule reads, row by row.
func baseValues(im *model.MasterRelation, rules *rule.Set, master []masterColumn) []model.Value {
	vals := []model.Value{model.Bottom}
	var cols []int
	addCol := func(ma int) {
		if ma >= 0 && !slices.Contains(cols, ma) {
			cols = append(cols, ma)
		}
	}
	for a := range master {
		addCol(master[a].ma)
	}
	for _, r := range rules.Rules() {
		switch f := r.(type) {
		case *rule.Form1:
			for _, p := range f.LHS {
				for _, o := range [2]rule.Operand{p.Left, p.Right} {
					if o.Kind == rule.Const {
						vals = append(vals, o.Val)
					}
				}
			}
		case *rule.Form2:
			for _, c := range f.Conds {
				switch {
				case c.IsConst || c.OnMaster:
					vals = append(vals, c.Const)
				case im != nil:
					addCol(im.Schema().Index(c.MasterAttr))
				}
			}
			if im != nil {
				addCol(im.Schema().Index(f.MasterAttr))
			}
		}
	}
	if im != nil {
		for _, t := range im.Tuples() {
			for _, ma := range cols {
				vals = append(vals, t.At(ma))
			}
		}
	}
	return vals
}

// baseID returns the ID of v in the base dictionary d, which NewShared
// built to hold every value it is asked for here.
func baseID(d *model.Dict, v model.Value) uint32 {
	id, ok := d.Lookup(v)
	if !ok {
		panic("chase: the base dictionary lacks " + v.Quote())
	}
	return id
}

// Dict returns the groundwork's base dictionary. It is read-only; tag
// decoded rows with it (Tuple.Resolve) so grounding reuses their IDs.
func (sh *Shared) Dict() *model.Dict { return sh.dict }

// Schema returns the entity schema the groundwork was built for.
func (sh *Shared) Schema() *model.Schema { return sh.schema }

// NewGrounding grounds one entity instance on the shared groundwork:
// the per-instance Instantiation (pair grounding, value indexing into a
// fresh overlay of the base dictionary) and base chase still run, but
// validation, the compiled form-(1) rules and the form-(2) index are
// reused. It is the one grounding builder, extend, applied to the
// empty grounding with the whole instance as the new tuples. The
// instance must use the exact schema the Shared was built for (pointer
// identity, as everywhere in package model); it is kept, not copied.
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
	var counts *verdictCounts
	if !opts.DisableVerdictCache {
		counts = new(verdictCounts)
	}
	ov := sh.dict.Overlay()
	ov.Grow(sh.overlayHint(ie))
	return sh.empty.extend(ie, ov, counts, !opts.DisableAxioms), nil
}

// overlayHint sizes a fresh entity's overlay: half the cells whose
// cached ID row does not resolve them in the base. Those are the values
// the overlay may have to add, and an entity's tuples repeat about half
// of them (gen.Med entities carry 110 such cells and add 52 values on
// average), so most overlays never reallocate and none holds much room
// it does not use.
func (sh *Shared) overlayHint(ie *model.EntityInstance) int {
	miss := 0
	for _, t := range ie.Tuples() {
		miss += t.Unresolved(sh.dict)
	}
	return miss / 2
}

// cmpPred is a tuple/constant comparison predicate compiled against the
// entity schema: tuple lt's value at position la, compared by op with
// tuple rt's value at position ra — or with the constant c when rt is
// 0. A constant operand is moved to the right at compile time, with op
// flipped, so evaluation reads at most two positions and never a name.
// kind says how evalCmpOnPair decides it; slot is a cmpRank
// comparison's rank slot.
type cmpPred struct {
	op     rule.Op
	kind   cmpKind
	lt, rt int8 // 1 = t1, 2 = t2; rt 0 = the constant c
	la, ra int32
	slot   int32
	c      model.Value
}

// cmpKind is how a compiled comparison is evaluated.
type cmpKind uint8

const (
	// cmpValue compares the values with Op.Eval: a constant other than
	// null (Value.Equal is finer than the Norm classes IDs stand for),
	// and an ordered comparison across two attributes.
	cmpValue cmpKind = iota
	// cmpNull compares a tuple value with the null constant: a NullID
	// test for = and ≠, false for an ordering operator.
	cmpNull
	// cmpID is = or ≠ between two tuple values: an ID comparison.
	cmpID
	// cmpRank is an ordering operator between two tuples' values on one
	// attribute: a comparison of the version's ranks of the values, or
	// cmpValue when the version left the attribute unranked.
	cmpRank
)

// premise is an order or target predicate compiled against the entity
// schema; grounding turns each into one resid of a ground step, in rule
// body order. An order premise is t1 ⪯attr t2 (≺ when strict). A target
// premise is te[attr] op x, te moved to the left at compile time (op
// flipped), where x is tuple xt's value at position xa, or the constant
// c when xt is 0.
type premise struct {
	order  bool
	strict bool
	op     rule.Op
	xt     int8
	attr   int32
	xa     int32
	c      model.Value
	cID    uint32 // c's base dictionary ID
}

// form1Rule is a form-(1) rule grounded per tuple pair, compiled against
// the entity schema. Its tuple/constant comparisons are split by the
// tuples they read, so groundForm1 tests guard1 once per t1 and guard2
// once per t2 before the pair loop (selection before join), and only
// pair per pair.
type form1Rule struct {
	name   string
	rhs    int32
	guard1 []cmpPred // read t1 only
	guard2 []cmpPred // read t2 only
	pair   []cmpPred // read t1 and t2
	prems  []premise // order and target predicates, in body order
}

// compileCorr recognises the correlated-attribute rule shape: exactly
// one order predicate, no target references, and any number of
// tuple/constant comparisons.
func (sh *Shared) compileCorr(f *rule.Form1) (corrRule, bool) {
	schema := sh.schema
	var order *rule.Pred
	var extra []cmpPred
	for k := range f.LHS {
		p := &f.LHS[k]
		switch {
		case p.Kind == rule.OrderPred:
			if order != nil {
				return corrRule{}, false
			}
			order = p
		case p.Left.Kind == rule.TargetAttr || p.Right.Kind == rule.TargetAttr:
			return corrRule{}, false
		default:
			extra = append(extra, sh.compileCmp(p))
		}
	}
	if order == nil {
		return corrRule{}, false
	}
	return corrRule{
		ruleName: f.RuleName,
		fromAttr: int32(schema.Index(order.Attr)),
		toAttr:   int32(schema.Index(f.RHS)),
		strict:   order.Strict,
		extra:    extra,
	}, true
}

// compileForm1 compiles a form-(1) rule that is not correlation-shaped
// against the base dictionary.
func (sh *Shared) compileForm1(f *rule.Form1) form1Rule {
	schema := sh.schema
	fr := form1Rule{name: f.RuleName, rhs: int32(schema.Index(f.RHS))}
	for k := range f.LHS {
		p := &f.LHS[k]
		switch {
		case p.Kind == rule.OrderPred:
			fr.prems = append(fr.prems, premise{order: true, strict: p.Strict, attr: int32(schema.Index(p.Attr))})
		case p.Left.Kind == rule.TargetAttr || p.Right.Kind == rule.TargetAttr:
			te, op, x := p.Left, p.Op, p.Right
			if x.Kind == rule.TargetAttr {
				te, op, x = x, op.Flip(), te
			}
			pr := premise{op: op, attr: int32(schema.Index(te.Attr))}
			if x.Kind == rule.TupleAttr {
				pr.xt, pr.xa = int8(x.Tup), int32(schema.Index(x.Attr))
			} else {
				pr.c, pr.cID = x.Val, baseID(sh.dict, x.Val)
			}
			fr.prems = append(fr.prems, pr)
		default:
			cp := sh.compileCmp(p)
			switch cp.lt | cp.rt {
			case 1:
				fr.guard1 = append(fr.guard1, cp)
			case 2:
				fr.guard2 = append(fr.guard2, cp)
			default:
				fr.pair = append(fr.pair, cp)
			}
		}
	}
	return fr
}

// compileCmp compiles a comparison between tuple operands and at most
// one constant (Validate rejects two constants), choosing its cmpKind;
// a cmpRank comparison gets its attribute's rank slot, which the first
// such comparison opens.
//
//relacc:grounding-builder
func (sh *Shared) compileCmp(p *rule.Pred) cmpPred {
	l, op, r := p.Left, p.Op, p.Right
	if l.Kind == rule.Const {
		l, op, r = r, op.Flip(), l
	}
	cp := cmpPred{op: op, lt: int8(l.Tup), la: int32(sh.schema.Index(l.Attr)), c: r.Val}
	if r.Kind == rule.TupleAttr {
		cp.rt, cp.ra = int8(r.Tup), int32(sh.schema.Index(r.Attr))
	}
	switch {
	case cp.rt == 0 && cp.c.IsNull():
		cp.kind = cmpNull
	case cp.rt == 0:
	case op == rule.Eq || op == rule.Ne:
		cp.kind = cmpID
	case cp.la == cp.ra:
		cp.kind = cmpRank
		cp.slot = int32(slices.Index(sh.rankAttrs, cp.la))
		if cp.slot < 0 {
			cp.slot = int32(len(sh.rankAttrs))
			sh.rankAttrs = append(sh.rankAttrs, cp.la)
		}
	}
	return cp
}
