package chase_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/chase"
	"repro/internal/model"
	"repro/internal/rule"
)

// randSpec builds a random small specification: 1–6 tuples over 2–4
// attributes with small value domains (including nulls), a random
// master relation, and a random mix of currency, correlation,
// constant-guard and master rules, plus the shapes grounding compiles
// specially: correlation rules guarded by a single-tuple or a pair
// comparison, null guards, target comparisons with te on either side,
// and tuple comparisons with the constant on the left. The generator deliberately produces both Church-Rosser and
// conflicting specifications.
func randSpec(rng *rand.Rand) (chase.Spec, *model.Tuple) {
	na := 2 + rng.Intn(3)
	attrs := make([]string, na)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	s := model.MustSchema("r", attrs...)

	randVal := func() model.Value {
		switch rng.Intn(5) {
		case 0:
			return model.NullValue()
		default:
			return model.I(int64(rng.Intn(4)))
		}
	}

	n := 1 + rng.Intn(6)
	ie := model.NewEntityInstance(s)
	for i := 0; i < n; i++ {
		vals := make([]model.Value, na)
		for a := range vals {
			vals[a] = randVal()
		}
		ie.MustAdd(model.MustTuple(s, vals...))
	}

	// Master relation over the first two attributes.
	ms := model.MustSchema("m", "a0", "a1")
	im := model.NewMasterRelation(ms)
	for i := 0; i < rng.Intn(3); i++ {
		im.MustAdd(model.MustTuple(ms, model.I(int64(rng.Intn(4))), model.I(int64(rng.Intn(4)))))
	}

	var rules []rule.Rule
	nr := rng.Intn(5)
	for i := 0; i < nr; i++ {
		a := attrs[rng.Intn(na)]
		b := attrs[rng.Intn(na)]
		switch rng.Intn(9) {
		case 0: // currency: t1[a] < t2[a] -> t1 ⪯a t2
			op := rule.Lt
			if rng.Intn(2) == 0 {
				op = rule.Gt // reversed currency, a conflict source
			}
			rules = append(rules, &rule.Form1{
				RuleName: fmt.Sprintf("cur%d", i),
				LHS:      []rule.Pred{rule.Cmp(rule.T1(a), op, rule.T2(a))},
				RHS:      a,
			})
		case 1: // correlation: t1 ≺a t2 -> t1 ⪯b t2
			rules = append(rules, &rule.Form1{
				RuleName: fmt.Sprintf("corr%d", i),
				LHS:      []rule.Pred{rule.Prec(a)},
				RHS:      b,
			})
		case 2: // guarded constant rule: t1[a]=c1 ∧ t2[a]=c2 -> t1 ⪯a t2
			rules = append(rules, &rule.Form1{
				RuleName: fmt.Sprintf("const%d", i),
				LHS: []rule.Pred{
					rule.Cmp(rule.T1(a), rule.Eq, rule.C(model.I(int64(rng.Intn(4))))),
					rule.Cmp(rule.T2(a), rule.Eq, rule.C(model.I(int64(rng.Intn(4))))),
				},
				RHS: a,
			})
		case 3: // master: te[a0] = tm[a0] -> te[a1] = tm[a1]
			rules = append(rules, &rule.Form2{
				RuleName:   fmt.Sprintf("m%d", i),
				Conds:      []rule.MasterCond{rule.CondMaster("a0", "a0")},
				TargetAttr: "a1",
				MasterAttr: "a1",
			})
		case 4: // guarded correlation: t1 ≺a t2 ∧ t2[b] ≠ null -> t1 ⪯b t2
			rules = append(rules, &rule.Form1{
				RuleName: fmt.Sprintf("gcorr%d", i),
				LHS:      []rule.Pred{rule.Prec(a), rule.Cmp(rule.T2(b), rule.Ne, rule.C(model.NullValue()))},
				RHS:      b,
			})
		case 5: // null guard: t1[a] = null ∧ t2[a] ≠ null -> t1 ⪯a t2
			rules = append(rules, &rule.Form1{
				RuleName: fmt.Sprintf("null%d", i),
				LHS: []rule.Pred{
					rule.Cmp(rule.T1(a), rule.Eq, rule.C(model.NullValue())),
					rule.Cmp(rule.T2(a), rule.Ne, rule.C(model.NullValue())),
				},
				RHS: a,
			})
		case 6: // order predicate with a pair comparison: t1 ⪯a t2 ∧ t1[b] < t2[b] -> t1 ⪯b t2
			rules = append(rules, &rule.Form1{
				RuleName: fmt.Sprintf("pcorr%d", i),
				LHS:      []rule.Pred{rule.PrecEq(a), rule.Cmp(rule.T1(b), rule.Lt, rule.T2(b))},
				RHS:      b,
			})
		case 7: // target comparison, te on either side: te[a] op c (or c op te[a]) ∧ t1[b] < t2[b] -> t1 ⪯b t2
			op := []rule.Op{rule.Lt, rule.Gt, rule.Eq, rule.Ne}[rng.Intn(4)]
			c := model.I(int64(rng.Intn(4)))
			tc := rule.Cmp(rule.Te(a), op, rule.C(c))
			if rng.Intn(2) == 0 {
				tc = rule.Cmp(rule.C(c), op, rule.Te(a))
			}
			rules = append(rules, &rule.Form1{
				RuleName: fmt.Sprintf("te%d", i),
				LHS:      []rule.Pred{tc, rule.Cmp(rule.T1(b), rule.Lt, rule.T2(b))},
				RHS:      b,
			})
		case 8: // constants on the left: c op t1[a] ∧ c' op' t2[a] -> t1 ⪯a t2, or t1 ≺b t2 ∧ c' op' t2[a] -> t1 ⪯a t2
			ops := []rule.Op{rule.Lt, rule.Le, rule.Gt, rule.Ge}
			lhs := []rule.Pred{
				rule.Cmp(rule.C(model.I(int64(rng.Intn(4)))), ops[rng.Intn(4)], rule.T1(a)),
				rule.Cmp(rule.C(model.I(int64(rng.Intn(4)))), ops[rng.Intn(4)], rule.T2(a)),
			}
			if rng.Intn(2) == 0 {
				lhs[0] = rule.Prec(b)
			}
			rules = append(rules, &rule.Form1{RuleName: fmt.Sprintf("cl%d", i), LHS: lhs, RHS: a})
		}
	}

	// Occasionally supply a template (candidate-check mode).
	var tpl *model.Tuple
	if rng.Intn(3) == 0 {
		tpl = model.NewTuple(s)
		for a := 0; a < na; a++ {
			if rng.Intn(2) == 0 {
				tpl.SetAt(a, model.I(int64(rng.Intn(4))))
			}
		}
	}

	rs, err := rule.NewSet(s, ms, rules...)
	if err != nil {
		panic(err)
	}
	return chase.Spec{Ie: ie, Im: im, Rules: rs}, tpl
}

// TestEngineMatchesNaive is the central differential property test: on
// random specifications the optimised engine and the reference
// implementation must agree on the Church-Rosser verdict, the deduced
// target and the derived orders.
func TestEngineMatchesNaive(t *testing.T) {
	for _, disableAxioms := range []bool{false, true} {
		name := "axioms"
		if disableAxioms {
			name = "noAxioms"
		}
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				spec, tpl := randSpec(rng)
				opts := chase.Options{DisableAxioms: disableAxioms}

				g, err := chase.NewGrounding(spec, opts)
				if err != nil {
					t.Logf("seed %d: grounding error %v", seed, err)
					return false
				}
				fast := g.Run(tpl)
				slow := chase.Naive(spec, opts, tpl)

				if fast.CR != slow.CR {
					t.Logf("seed %d: CR fast=%v (%s) slow=%v (%s)",
						seed, fast.CR, fast.Conflict, slow.CR, slow.Conflict)
					return false
				}
				if !fast.CR {
					return true
				}
				if !fast.Target.EqualTo(slow.Target) {
					t.Logf("seed %d: target fast=%s slow=%s", seed, fast.Target, slow.Target)
					return false
				}
				for a := 0; a < spec.Ie.Schema().Arity(); a++ {
					fr, sr := fast.Orders.Attr(a), slow.Orders.Attr(a)
					for i := 0; i < spec.Ie.Size(); i++ {
						for j := 0; j < spec.Ie.Size(); j++ {
							if i != j && fr.Has(i, j) != sr.Has(i, j) {
								t.Logf("seed %d: order[%d] (%d,%d) fast=%v slow=%v",
									seed, a, i, j, fr.Has(i, j), sr.Has(i, j))
								return false
							}
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRunIdempotent: repeated runs of the same grounding with the same
// template give identical results (the grounding is immutable).
func TestRunIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec, tpl := randSpec(rng)
		g, err := chase.NewGrounding(spec, chase.Options{})
		if err != nil {
			return false
		}
		r1 := g.Run(tpl)
		r2 := g.Run(tpl)
		if r1.CR != r2.CR {
			return false
		}
		if r1.CR && !r1.Target.EqualTo(r2.Target) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestOrdersStayValid: in every Church-Rosser outcome the orders are
// transitively closed and mutual pairs only relate equal values — the
// validity invariant of Section 2.2.
func TestOrdersStayValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec, tpl := randSpec(rng)
		g, err := chase.NewGrounding(spec, chase.Options{})
		if err != nil {
			return false
		}
		res := g.Run(tpl)
		if !res.CR {
			return true
		}
		n := spec.Ie.Size()
		for a := 0; a < spec.Ie.Schema().Arity(); a++ {
			rel := res.Orders.Attr(a)
			if !rel.TransitiveOK() {
				return false
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j && rel.Mutual(i, j) &&
						!spec.Ie.Value(i, a).Equal(spec.Ie.Value(j, a)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTargetDominates: every deduced non-null target value is carried by
// a tuple that dominates all others in that attribute's order, or was
// instantiated from master data.
func TestTargetDominates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec, _ := randSpec(rng)
		g, err := chase.NewGrounding(spec, chase.Options{})
		if err != nil {
			return false
		}
		res := g.Run(nil)
		if !res.CR {
			return true
		}
		n := spec.Ie.Size()
		for a := 0; a < spec.Ie.Schema().Arity(); a++ {
			v := res.Target.At(a)
			if v.IsNull() {
				continue
			}
			// If the value occurs in the instance, some carrier must be
			// dominated by no conflicting maximum; verify via Max.
			m := res.Orders.Attr(a).Max()
			if m >= 0 {
				mv := spec.Ie.Value(m, a)
				if !mv.IsNull() && !mv.Equal(v) {
					return false
				}
			}
			_ = n
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
