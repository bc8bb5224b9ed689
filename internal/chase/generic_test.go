package chase_test

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/model"
	"repro/internal/rule"
)

// TestMultiOrderPredicateRule exercises the generic grounding path:
// rules with two order predicates cannot be compiled to a correlation
// trigger and must go through per-pair ground steps with counters.
func TestMultiOrderPredicateRule(t *testing.T) {
	s := model.MustSchema("r", "a", "b", "c")
	ie := model.NewEntityInstance(s)
	ie.MustAdd(model.MustTuple(s, model.I(1), model.I(10), model.S("x")))
	ie.MustAdd(model.MustTuple(s, model.I(2), model.I(20), model.S("y")))
	ie.MustAdd(model.MustTuple(s, model.I(3), model.I(15), model.S("z")))

	rules := rule.MustSet(s, nil,
		&rule.Form1{RuleName: "curA",
			LHS: []rule.Pred{rule.Cmp(rule.T1("a"), rule.Lt, rule.T2("a"))}, RHS: "a"},
		&rule.Form1{RuleName: "curB",
			LHS: []rule.Pred{rule.Cmp(rule.T1("b"), rule.Lt, rule.T2("b"))}, RHS: "b"},
		// c follows only when BOTH a and b agree on the direction.
		&rule.Form1{RuleName: "both",
			LHS: []rule.Pred{rule.Prec("a"), rule.Prec("b")}, RHS: "c"},
	)
	res, err := chase.Deduce(chase.Spec{Ie: ie, Rules: rules}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CR {
		t.Fatalf("not CR: %s", res.Conflict)
	}
	// a-order: t0<t1<t2 by a... a values 1,2,3 → chain to t2 (a=3).
	if v, _ := res.Target.Get("a"); !v.Equal(model.I(3)) {
		t.Errorf("te[a] = %v", v)
	}
	// b-order: 10<15<20 → max is t1 (b=20).
	if v, _ := res.Target.Get("b"); !v.Equal(model.I(20)) {
		t.Errorf("te[b] = %v", v)
	}
	// c-order: pairs where both strict orders agree: (t0,t1): a:1<2 ✓
	// b:10<20 ✓ → t0 ⪯c t1; (t0,t2): a ✓, b:10<15 ✓ → t0 ⪯c t2;
	// (t1,t2): a:2<3 ✓ but b:20>15 ✗ → no pair. No c-maximum: null.
	if v, _ := res.Target.Get("c"); !v.IsNull() {
		t.Errorf("te[c] = %v, want null (no tuple dominates both orders)", v)
	}
	// The derived c-order must contain exactly the two agreeing pairs.
	rel := res.Orders.Attr(s.Index("c"))
	if !rel.Has(0, 1) || !rel.Has(0, 2) {
		t.Errorf("expected t0 ⪯c t1 and t0 ⪯c t2")
	}
	if rel.Has(1, 2) || rel.Has(2, 1) {
		t.Errorf("t1/t2 must stay unordered on c")
	}
}

// TestTargetComparisonPredicates: a form-1 rule keyed on te values with
// non-equality operators (the generic target-trigger path), with te on
// either side of the comparison and compared against a constant or a
// tuple value. Grade agrees (ϕ9 + λ deduce te[grade]), so the rule
// fires — making the gold tuple's tier win — exactly when its target
// comparison holds on that grade.
func TestTargetComparisonPredicates(t *testing.T) {
	s := model.MustSchema("r", "grade", "tier", "cap")
	cases := []struct {
		name     string
		cmp      rule.Pred // the target comparison; t1 is the silver tuple
		grade    int64
		wantGold bool
	}{
		{"te > c", rule.Cmp(rule.Te("grade"), rule.Gt, rule.C(model.I(5))), 7, true},
		{"te > c below", rule.Cmp(rule.Te("grade"), rule.Gt, rule.C(model.I(5))), 3, false},
		{"c < te", rule.Cmp(rule.C(model.I(5)), rule.Lt, rule.Te("grade")), 7, true},
		{"c < te below", rule.Cmp(rule.C(model.I(5)), rule.Lt, rule.Te("grade")), 3, false},
		// t1[cap] is 6 below.
		{"t1 >= te", rule.Cmp(rule.T1("cap"), rule.Ge, rule.Te("grade")), 3, true},
		{"t1 >= te above", rule.Cmp(rule.T1("cap"), rule.Ge, rule.Te("grade")), 7, false},
		{"te <= t1", rule.Cmp(rule.Te("grade"), rule.Le, rule.T1("cap")), 3, true},
		{"te <= t1 above", rule.Cmp(rule.Te("grade"), rule.Le, rule.T1("cap")), 7, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ie := model.NewEntityInstance(s)
			ie.MustAdd(model.MustTuple(s, model.I(tc.grade), model.S("gold"), model.I(1)))
			ie.MustAdd(model.MustTuple(s, model.I(tc.grade), model.S("silver"), model.I(6)))
			rules := rule.MustSet(s, nil,
				&rule.Form1{RuleName: "premium",
					LHS: []rule.Pred{
						tc.cmp,
						rule.Cmp(rule.T1("tier"), rule.Eq, rule.C(model.S("silver"))),
						rule.Cmp(rule.T2("tier"), rule.Eq, rule.C(model.S("gold"))),
					},
					RHS: "tier"},
			)
			res, err := chase.Deduce(chase.Spec{Ie: ie, Rules: rules}, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.CR {
				t.Fatalf("not CR: %s", res.Conflict)
			}
			want := model.NullValue()
			if tc.wantGold {
				want = model.S("gold")
			}
			if v, _ := res.Target.Get("tier"); !v.Equal(want) {
				t.Errorf("te[tier] = %v, want %v", v, want)
			}
		})
	}
}

// TestGuardedCorrelationRule: extra constant predicates on a correlation
// rule are evaluated per pair at propagation time.
func TestGuardedCorrelationRule(t *testing.T) {
	s := model.MustSchema("r", "v", "x")
	ie := model.NewEntityInstance(s)
	ie.MustAdd(model.MustTuple(s, model.I(1), model.S("old")))
	ie.MustAdd(model.MustTuple(s, model.I(2), model.NullValue()))
	ie.MustAdd(model.MustTuple(s, model.I(3), model.S("new")))

	rules := rule.MustSet(s, nil,
		&rule.Form1{RuleName: "cur",
			LHS: []rule.Pred{rule.Cmp(rule.T1("v"), rule.Lt, rule.T2("v"))}, RHS: "v"},
		&rule.Form1{RuleName: "corr",
			LHS: []rule.Pred{
				rule.Prec("v"),
				rule.Cmp(rule.T2("x"), rule.Ne, rule.C(model.NullValue())),
			},
			RHS: "x"},
	)
	res, err := chase.Deduce(chase.Spec{Ie: ie, Rules: rules}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CR {
		t.Fatalf("not CR: %s", res.Conflict)
	}
	// The null-x tuple (t1) is newer than t0 but the guard stops the
	// propagation toward it; t2 dominates: te[x] = new.
	if v, _ := res.Target.Get("x"); !v.Equal(model.S("new")) {
		t.Errorf("te[x] = %v, want new", v)
	}
	rel := res.Orders.Attr(s.Index("x"))
	if rel.Has(0, 1) {
		t.Errorf("guarded rule must not order toward a null value")
	}
}

// TestChaseStepCountBound: Proposition 1 — the chase terminates within
// O(|Ie|²) applied steps per attribute order (the engine counts at most
// the enforced rule consequences; axiom bulk work is internal).
func TestChaseStepCountBound(t *testing.T) {
	s := model.MustSchema("r", "a", "b")
	ie := model.NewEntityInstance(s)
	n := 30
	for i := 0; i < n; i++ {
		// b changes monotonically along the a-chain (a value that cycled
		// back would be a genuine order conflict — see the conflict
		// tests).
		ie.MustAdd(model.MustTuple(s, model.I(int64(i)), model.I(int64(i/10))))
	}
	rules := rule.MustSet(s, nil,
		&rule.Form1{RuleName: "cur",
			LHS: []rule.Pred{rule.Cmp(rule.T1("a"), rule.Lt, rule.T2("a"))}, RHS: "a"},
		&rule.Form1{RuleName: "corr",
			LHS: []rule.Pred{rule.Prec("a")}, RHS: "b"},
	)
	res, err := chase.Deduce(chase.Spec{Ie: ie, Rules: rules}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CR {
		t.Fatalf("not CR: %s", res.Conflict)
	}
	if res.Steps > 2*n*n*s.Arity() {
		t.Errorf("steps = %d exceeds the O(|Ie|²) budget", res.Steps)
	}
}

// TestFormOneTargetEqNull: a ground pair whose target-equality operand
// is null can never fire and is dropped at grounding.
func TestFormOneTargetEqNull(t *testing.T) {
	s := model.MustSchema("r", "a", "b")
	ie := model.NewEntityInstance(s)
	ie.MustAdd(model.MustTuple(s, model.S("x"), model.NullValue()))
	ie.MustAdd(model.MustTuple(s, model.S("x"), model.S("q")))
	// t2[b] = te[b]: for the pair where t2 is the null-b tuple, the
	// operand folds to null and the step is unsatisfiable; the other
	// pair can fire once te[b] is known — but nothing ever sets te[b]
	// toward "q"... actually ϕ7 resolves b to q, then the rule fires as
	// a no-op pair. The point: grounding must not panic or mis-fire.
	rules := rule.MustSet(s, nil,
		&rule.Form1{RuleName: "phi8like",
			LHS: []rule.Pred{
				rule.Cmp(rule.T2("b"), rule.Eq, rule.Te("b")),
				rule.Cmp(rule.Te("b"), rule.Ne, rule.C(model.NullValue())),
			},
			RHS: "b"},
	)
	res, err := chase.Deduce(chase.Spec{Ie: ie, Rules: rules}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CR {
		t.Fatalf("not CR: %s", res.Conflict)
	}
	if v, _ := res.Target.Get("b"); !v.Equal(model.S("q")) {
		t.Errorf("te[b] = %v, want q via ϕ7", v)
	}
}
