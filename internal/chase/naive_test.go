package chase

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/rule"
)

// Naive runs the chase with a direct, obviously-faithful interpretation
// of the rule semantics: it repeatedly scans every rule against every
// tuple pair (and every master tuple) until fixpoint, enforcing each
// applicable step and declaring the specification not Church-Rosser as
// soon as an enforceable step is invalid. It is exponentially slower
// than Grounding.Run and exists as the reference implementation for
// differential (property-based) testing. It is test code: the external
// chase_test package reaches it through the test build, the way the
// export_test.go idiom works.
func Naive(spec Spec, opts Options, template *model.Tuple) *Result {
	n := spec.Ie.Size()
	schema := spec.Ie.Schema()
	na := schema.Arity()

	rules := append([]rule.Rule(nil), spec.Rules.Rules()...)
	if !opts.DisableAxioms {
		for a := 0; a < na; a++ {
			attr := schema.Attr(a)
			rules = append(rules,
				&rule.Form1{ // ϕ7: null has the lowest accuracy
					RuleName: "axiom-null-" + attr,
					LHS: []rule.Pred{
						rule.Cmp(rule.T1(attr), rule.Eq, rule.C(model.NullValue())),
						rule.Cmp(rule.T2(attr), rule.Ne, rule.C(model.NullValue())),
					},
					RHS: attr,
				},
				&rule.Form1{ // ϕ8: the target value has the highest accuracy
					RuleName: "axiom-target-" + attr,
					LHS: []rule.Pred{
						rule.Cmp(rule.T2(attr), rule.Eq, rule.Te(attr)),
						rule.Cmp(rule.Te(attr), rule.Ne, rule.C(model.NullValue())),
					},
					RHS: attr,
				},
				&rule.Form1{ // ϕ9: equal values are mutually ⪯
					RuleName: "axiom-equal-" + attr,
					LHS: []rule.Pred{
						rule.Cmp(rule.T1(attr), rule.Eq, rule.T2(attr)),
					},
					RHS: attr,
				},
			)
		}
	}

	orders := order.NewSet(na, n)
	te := model.NewTuple(schema)
	if template != nil {
		te = template.Clone()
	}
	steps := 0

	operand := func(o rule.Operand, i, j int) model.Value {
		switch o.Kind {
		case rule.Const:
			return o.Val
		case rule.TupleAttr:
			a := schema.Index(o.Attr)
			if o.Tup == 1 {
				return spec.Ie.Value(i, a)
			}
			return spec.Ie.Value(j, a)
		case rule.TargetAttr:
			return te.At(schema.Index(o.Attr))
		}
		return model.NullValue()
	}

	// predHolds evaluates one form-(1) premise on the pair (i, j). A
	// comparison that references te holds only when the referenced
	// target attribute is defined (te[A] ≠ null is exactly the
	// definedness test); this matches the trigger semantics of the
	// incremental engine.
	predHolds := func(p rule.Pred, i, j int) bool {
		if p.Kind == rule.OrderPred {
			a := schema.Index(p.Attr)
			if !orders.Attr(a).Has(i, j) {
				return false
			}
			if p.Strict {
				return !spec.Ie.Value(i, a).Equal(spec.Ie.Value(j, a))
			}
			return true
		}
		for _, o := range []rule.Operand{p.Left, p.Right} {
			if o.Kind == rule.TargetAttr && te.At(schema.Index(o.Attr)).IsNull() {
				// te[A] op X with undefined te[A]: only "te[A] != null"
				// could sensibly hold, and it is false while undefined.
				return false
			}
		}
		return p.Op.Eval(operand(p.Left, i, j), operand(p.Right, i, j))
	}

	valEq := func(a, i, j int) bool {
		return spec.Ie.Value(i, a).Equal(spec.Ie.Value(j, a))
	}

	// setTarget enforces te[a] = v; it returns (changed, conflictMsg).
	setTarget := func(a int, v model.Value) (bool, string) {
		cur := te.At(a)
		if !cur.IsNull() {
			if cur.Equal(v) {
				return false, ""
			}
			return false, fmt.Sprintf("target conflict on %s: %s vs %s", schema.Attr(a), cur, v)
		}
		te.SetAt(a, v)
		return true, ""
	}

	// addPair enforces i ⪯a j with λ; it returns (changed, conflictMsg).
	addPair := func(a, i, j int) (bool, string) {
		rel := orders.Attr(a)
		if rel.Has(i, j) {
			return false, ""
		}
		if rel.Has(j, i) && !valEq(a, i, j) {
			return false, fmt.Sprintf("order conflict on %s: %d vs %d", schema.Attr(a), i, j)
		}
		added := rel.Add(i, j)
		for _, p := range added {
			if p.From != p.To && rel.Has(p.To, p.From) && !valEq(a, p.From, p.To) {
				return true, fmt.Sprintf("order conflict on %s: %d vs %d", schema.Attr(a), p.From, p.To)
			}
		}
		if m := rel.Max(); m >= 0 {
			if v := spec.Ie.Value(m, a); !v.IsNull() {
				if _, msg := setTarget(a, v); msg != "" {
					return true, "λ " + msg
				}
			}
		}
		return true, ""
	}

	for {
		changed := false
		for _, r := range rules {
			switch f := r.(type) {
			case *rule.Form1:
				a := schema.Index(f.RHS)
				for i := 0; i < n; i++ {
				pairs:
					for j := 0; j < n; j++ {
						for _, p := range f.LHS {
							if !predHolds(p, i, j) {
								continue pairs
							}
						}
						ch, msg := addPair(a, i, j)
						if msg != "" {
							return &Result{Conflict: fmt.Sprintf("%s: %s", f.RuleName, msg)}
						}
						if ch {
							changed = true
							steps++
						}
					}
				}
			case *rule.Form2:
				if spec.Im == nil {
					continue
				}
				rm := spec.Im.Schema()
				a := schema.Index(f.TargetAttr)
			masters:
				for _, tm := range spec.Im.Tuples() {
					v := tm.At(rm.Index(f.MasterAttr))
					if v.IsNull() {
						continue
					}
					for _, c := range f.Conds {
						if c.OnMaster {
							if !tm.At(rm.Index(c.MasterAttr)).Equal(c.Const) {
								continue masters
							}
							continue
						}
						ta := schema.Index(c.TargetAttr)
						cur := te.At(ta)
						if cur.IsNull() {
							continue masters
						}
						want := c.Const
						if !c.IsConst {
							want = tm.At(rm.Index(c.MasterAttr))
						}
						if !cur.Equal(want) {
							continue masters
						}
					}
					ch, msg := setTarget(a, v)
					if msg != "" {
						return &Result{Conflict: fmt.Sprintf("%s: %s", f.RuleName, msg)}
					}
					if ch {
						changed = true
						steps++
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	return &Result{CR: true, Target: te, Orders: orders, Steps: steps}
}
