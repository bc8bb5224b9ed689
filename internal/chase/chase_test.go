package chase_test

import (
	"fmt"
	"testing"

	"repro/internal/chase"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/paperdata"
	"repro/internal/rule"
)

// paperSpec builds the specification of Example 5 (stat + nba + ϕ1–ϕ11).
func paperSpec(t *testing.T) chase.Spec {
	t.Helper()
	ie := paperdata.Stat()
	im := paperdata.NBA()
	rs, err := rule.NewSet(ie.Schema(), im.Schema(), paperdata.Rules()...)
	if err != nil {
		t.Fatalf("rule set: %v", err)
	}
	return chase.Spec{Ie: ie, Im: im, Rules: rs}
}

// deduce grounds spec and runs it from the all-null template, the
// paper's IsCR, returning the terminal orders beside the result.
func deduce(spec chase.Spec, opts chase.Options) (chase.Terminal, error) {
	g, err := chase.NewGrounding(spec, opts)
	if err != nil {
		return chase.Terminal{}, err
	}
	return chase.RunTerminal(g, nil), nil
}

// TestPaperExample5 is the golden test for the running example: the
// chase must be Church-Rosser and deduce the exact complete target of
// Example 5.
func TestPaperExample5(t *testing.T) {
	spec := paperSpec(t)
	res, err := deduce(spec, chase.Options{})
	if err != nil {
		t.Fatalf("deduce: %v", err)
	}
	if !res.CR {
		t.Fatalf("specification should be Church-Rosser, got conflict: %s", res.Conflict)
	}
	want := paperdata.Target()
	got := res.Target
	for a := 0; a < got.Schema().Arity(); a++ {
		w, _ := want.Get(got.Schema().Attr(a))
		if !got.At(a).Equal(w) {
			t.Errorf("te[%s] = %s, want %s", got.Schema().Attr(a), got.At(a), w)
		}
	}
	if !res.Complete() {
		t.Errorf("target should be complete, got %s", got)
	}
}

// TestNewSharedOwnsItsDictionary: two groundworks over the very same
// (schema, master, rules) objects get distinct base dictionaries, each
// grounding interns into an overlay of its own Shared's base, and
// neither base grows — a fresh update stream must not inherit another
// stream's dictionary.
func TestNewSharedOwnsItsDictionary(t *testing.T) {
	spec := paperSpec(t)
	a, err := chase.NewShared(spec.Ie.Schema(), spec.Im, spec.Rules)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chase.NewShared(spec.Ie.Schema(), spec.Im, spec.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dict() == b.Dict() {
		t.Fatal("two NewShared calls returned the same dictionary")
	}
	size := a.Dict().Size()
	var overlays []*model.Dict
	for _, sh := range []*chase.Shared{a, b, a} {
		g, err := sh.NewGrounding(spec.Ie, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res := g.Run(nil); !res.CR || !res.Target.EqualTo(paperdata.Target()) {
			t.Fatalf("deduced %v (CR %v), want the Example 5 target", res.Target, res.CR)
		}
		for _, o := range overlays {
			if g.Dict() == o {
				t.Fatal("two groundings share an overlay")
			}
		}
		if g.Dict() == sh.Dict() || g.Dict().Size() <= size {
			t.Fatalf("grounding interned into its Shared's base (overlay size %d, base %d)", g.Dict().Size(), size)
		}
		overlays = append(overlays, g.Dict())
	}
	if a.Dict().Size() != size || b.Dict().Size() != size {
		t.Fatalf("grounding grew a base dictionary: %d and %d values, built with %d", a.Dict().Size(), b.Dict().Size(), size)
	}
}

// TestNewSharedBaseHoldsRuleConstants: the base dictionary holds every
// rule constant — form (1) and form (2) — and ⊥ from construction, so
// grounding resolves constants without interning, and a grounding
// whose entity carries only such values adds nothing to its overlay.
func TestNewSharedBaseHoldsRuleConstants(t *testing.T) {
	spec := paperSpec(t)
	s, ms := spec.Ie.Schema(), spec.Im.Schema()
	rs, err := spec.Rules.Append(s, ms,
		&rule.Form1{RuleName: "consts", LHS: []rule.Pred{
			rule.Cmp(rule.T1("team"), rule.Eq, rule.C(model.S("x"))),
			rule.Cmp(rule.Te("rnds"), rule.Gt, rule.C(model.I(3))),
		}, RHS: "team"},
		&rule.Form1{RuleName: "corr-const", LHS: []rule.Pred{
			rule.Prec("rnds"),
			rule.Cmp(rule.C(model.S("y")), rule.Ne, rule.T2("arena")),
		}, RHS: "arena"},
	)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := chase.NewShared(s, spec.Im, rs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []model.Value{model.S("x"), model.I(3), model.S("y"), model.S("1994-95"), model.Bottom} {
		if _, ok := sh.Dict().Lookup(c); !ok {
			t.Errorf("the base lacks the constant %s", c.Quote())
		}
	}
	ie := model.NewEntityInstance(s)
	row := make([]model.Value, s.Arity())
	row[s.Index("team")], row[s.Index("rnds")], row[s.Index("arena")] = model.S("x"), model.I(3), model.S("y")
	ie.MustAdd(model.MustTuple(s, row...))
	ie.MustAdd(model.MustTuple(s, row...))
	size := sh.Dict().Size()
	g, err := sh.NewGrounding(ie, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Dict().Size() != size || sh.Dict().Size() != size {
		t.Fatalf("grounding constants grew the overlay to %d and the base to %d values, base built with %d",
			g.Dict().Size(), sh.Dict().Size(), size)
	}
}

// TestGroundingTrustsOnlyItsOwnCachedIDs: grounding reuses a tuple's
// cached dictionary ID only when it belongs to the grounding's own
// overlay or the Shared's base and is still valid. Tuples resolved
// against the Shared's base, against a foreign dictionary whose IDs
// name other values, or against another entity's overlay, and tuples
// re-set with SetAt after resolving, must all ground — fresh and
// through Extend — exactly like plain copies of the same values.
func TestGroundingTrustsOnlyItsOwnCachedIDs(t *testing.T) {
	cfg := gen.MedConfig()
	cfg.NumEntities = 24
	ds := gen.Generate(cfg)
	schema := ds.Entities[0].Instance.Schema()
	sh, err := chase.NewShared(schema, ds.Master, ds.Rules)
	if err != nil {
		t.Fatal(err)
	}
	// foreign holds every value of the dataset, but under IDs that name
	// other values in the Shared's base and in every overlay.
	var fvals []model.Value
	for k := 0; k < 50; k++ {
		fvals = append(fvals, model.S(fmt.Sprintf("foreign%d", k)))
	}
	for _, e := range ds.Entities {
		for _, tu := range e.Instance.Tuples() {
			for a := 0; a < schema.Arity(); a++ {
				fvals = append(fvals, tu.At(a))
			}
		}
	}
	foreign := model.NewDict(fvals...)
	// sibling is another entity's overlay of the same base: its IDs
	// past the base name that entity's values, not this one's.
	sib, err := sh.NewGrounding(ds.Entities[len(ds.Entities)-1].Instance, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	version := schema.Index("version")
	kinds := []struct {
		name    string
		prepare func(i int, t *model.Tuple)
	}{
		{"own", func(_ int, t *model.Tuple) { t.Resolve(sh.Dict()) }},
		{"foreign", func(_ int, t *model.Tuple) { t.Resolve(foreign) }},
		{"sibling", func(_ int, t *model.Tuple) { t.Resolve(sib.Dict()) }},
		{"reset", func(i int, t *model.Tuple) {
			t.Resolve(sh.Dict())
			t.SetAt(version, model.I(int64(i%3)))
		}},
	}
	nattr := schema.Arity()
	for _, kind := range kinds {
		for ei, e := range ds.Entities {
			n := e.Instance.Size()
			cached := model.NewEntityInstance(schema)
			plain := model.NewEntityInstance(schema)
			for i, tu := range e.Instance.Tuples() {
				c := tu.Clone()
				kind.prepare(i, c)
				vals := make([]model.Value, nattr)
				for a := range vals {
					vals[a] = c.At(a)
				}
				cached.MustAdd(c)
				plain.MustAdd(model.MustTuple(schema, vals...))
			}
			want, err := sh.NewGrounding(plain, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := sh.NewGrounding(cached, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			inc := groundPrefix(t, chase.Spec{Ie: cached, Im: ds.Master, Rules: ds.Rules}, chase.Options{}, (n+1)/2, []int{n / 2})
			for _, got := range []struct {
				path string
				g    *chase.Grounding
			}{{"NewGrounding", fresh}, {"Extend", inc}} {
				if got.g.GroundSteps() != want.GroundSteps() {
					t.Errorf("%s entity %d via %s: %d ground steps, plain copies %d",
						kind.name, ei, got.path, got.g.GroundSteps(), want.GroundSteps())
				}
				if !sameResult(t, n, nattr, chase.RunTerminal(want, nil), chase.RunTerminal(got.g, nil)) {
					t.Errorf("%s entity %d via %s: Run differs from plain copies", kind.name, ei, got.path)
				}
			}
		}
	}
}

// TestPaperExample6 verifies that adding ϕ12 destroys Church-Rosser.
func TestPaperExample6(t *testing.T) {
	spec := paperSpec(t)
	rs, err := spec.Rules.Append(spec.Ie.Schema(), spec.Im.Schema(), paperdata.Phi12())
	if err != nil {
		t.Fatalf("append phi12: %v", err)
	}
	spec.Rules = rs
	res, err := deduce(spec, chase.Options{})
	if err != nil {
		t.Fatalf("deduce: %v", err)
	}
	if res.CR {
		t.Fatalf("specification with phi12 should not be Church-Rosser; deduced %s", res.Target)
	}
	if res.Conflict == "" {
		t.Errorf("expected a conflict description")
	}
}

// TestIncompleteWithoutPhi11 drops ϕ11: the spec stays Church-Rosser
// but the arena attribute can no longer be deduced (Section 3).
func TestIncompleteWithoutPhi11(t *testing.T) {
	spec := paperSpec(t)
	spec.Rules = spec.Rules.Filter(func(r rule.Rule) bool { return r.Name() != "phi11" })
	res, err := deduce(spec, chase.Options{})
	if err != nil {
		t.Fatalf("deduce: %v", err)
	}
	if !res.CR {
		t.Fatalf("should be Church-Rosser, got %s", res.Conflict)
	}
	if res.Complete() {
		t.Fatalf("target should be incomplete without phi11")
	}
	arena, _ := res.Target.Get(paperdata.Arena)
	if !arena.IsNull() {
		t.Errorf("te[arena] = %s, want null", arena)
	}
	// Every other attribute must still be deduced.
	for _, a := range res.Target.Schema().Attrs() {
		if a == paperdata.Arena {
			continue
		}
		if v, _ := res.Target.Get(a); v.IsNull() {
			t.Errorf("te[%s] should be deduced", a)
		}
	}
}

// TestRuleFormsInteract reproduces the §7 Exp-1 observation that the two
// rule forms complement each other: neither form alone completes the
// paper's example target.
func TestRuleFormsInteract(t *testing.T) {
	for _, tc := range []struct {
		name string
		pick func(*rule.Set) *rule.Set
	}{
		{"form1 only", (*rule.Set).Form1Only},
		{"form2 only", (*rule.Set).Form2Only},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := paperSpec(t)
			spec.Rules = tc.pick(spec.Rules)
			res, err := deduce(spec, chase.Options{})
			if err != nil {
				t.Fatalf("deduce: %v", err)
			}
			if !res.CR {
				t.Fatalf("should be Church-Rosser, got %s", res.Conflict)
			}
			if res.Complete() {
				t.Fatalf("%s should not complete the target, got %s", tc.name, res.Target)
			}
		})
	}
}

// TestCheckCandidate exercises the candidate-target check of §6.1: the
// true target passes, a target contradicting the derived orders fails.
func TestCheckCandidate(t *testing.T) {
	spec := paperSpec(t)
	g, err := chase.NewGrounding(spec, chase.Options{})
	if err != nil {
		t.Fatalf("NewGrounding: %v", err)
	}
	if res := g.Run(paperdata.Target()); !res.CR {
		t.Errorf("true target should pass check, got %s", res.Conflict)
	}

	bad := paperdata.Target()
	bad.Set(paperdata.Arena, model.S("Regions Park")) // contradicts ϕ11-derived order
	if res := g.Run(bad); res.CR {
		t.Errorf("candidate with arena=Regions Park should fail check")
	}

	bad2 := paperdata.Target()
	bad2.Set(paperdata.League, model.S("SL")) // contradicts master data
	if res := g.Run(bad2); res.CR {
		t.Errorf("candidate with league=SL should fail check")
	}

	bad3 := paperdata.Target()
	bad3.Set(paperdata.Rnds, model.I(1)) // contradicts the currency chain ϕ1
	if res := g.Run(bad3); res.CR {
		t.Errorf("candidate with rnds=1 should fail check")
	}
}

// TestRunIsRepeatable verifies a grounding can be reused: repeated runs
// with different templates are independent.
func TestRunIsRepeatable(t *testing.T) {
	spec := paperSpec(t)
	g, err := chase.NewGrounding(spec, chase.Options{})
	if err != nil {
		t.Fatalf("NewGrounding: %v", err)
	}
	r1 := g.Run(nil)
	bad := paperdata.Target()
	bad.Set(paperdata.League, model.S("SL"))
	if res := g.Run(bad); res.CR {
		t.Fatalf("bad candidate accepted")
	}
	r2 := g.Run(nil)
	if !r1.CR || !r2.CR {
		t.Fatalf("plain runs should be CR")
	}
	if !r1.Target.EqualTo(r2.Target) {
		t.Errorf("runs differ: %s vs %s", r1.Target, r2.Target)
	}
}

// TestSingletonInstance: an instance with one tuple deduces that tuple's
// non-null values via ϕ9 + λ.
func TestSingletonInstance(t *testing.T) {
	s := model.MustSchema("r", "a", "b")
	ie := model.NewEntityInstance(s)
	ie.MustAdd(model.MustTuple(s, model.S("x"), model.NullValue()))
	res, err := deduce(chase.Spec{Ie: ie, Rules: rule.MustSet(s, nil)}, chase.Options{})
	if err != nil {
		t.Fatalf("deduce: %v", err)
	}
	if !res.CR {
		t.Fatalf("singleton should be CR: %s", res.Conflict)
	}
	if v, _ := res.Target.Get("a"); !v.Equal(model.S("x")) {
		t.Errorf("te[a] = %s, want x", v)
	}
	if v, _ := res.Target.Get("b"); !v.IsNull() {
		t.Errorf("te[b] = %s, want null", v)
	}
}

// TestAgreementResolves: when all tuples agree on an attribute, ϕ9 makes
// every tuple maximal and λ instantiates the target.
func TestAgreementResolves(t *testing.T) {
	s := model.MustSchema("r", "a", "b")
	ie := model.NewEntityInstance(s)
	ie.MustAdd(model.MustTuple(s, model.S("x"), model.S("p")))
	ie.MustAdd(model.MustTuple(s, model.S("x"), model.S("q")))
	res, err := deduce(chase.Spec{Ie: ie, Rules: rule.MustSet(s, nil)}, chase.Options{})
	if err != nil {
		t.Fatalf("deduce: %v", err)
	}
	if v, _ := res.Target.Get("a"); !v.Equal(model.S("x")) {
		t.Errorf("te[a] = %s, want x", v)
	}
	if v, _ := res.Target.Get("b"); !v.IsNull() {
		t.Errorf("te[b] = %s, want null (p vs q is unresolved)", v)
	}
}

// TestNullLowest: ϕ7 resolves attributes where all but one tuple are null.
func TestNullLowest(t *testing.T) {
	s := model.MustSchema("r", "a")
	ie := model.NewEntityInstance(s)
	ie.MustAdd(model.MustTuple(s, model.NullValue()))
	ie.MustAdd(model.MustTuple(s, model.S("v")))
	ie.MustAdd(model.MustTuple(s, model.NullValue()))
	res, err := deduce(chase.Spec{Ie: ie, Rules: rule.MustSet(s, nil)}, chase.Options{})
	if err != nil {
		t.Fatalf("deduce: %v", err)
	}
	if v, _ := res.Target.Get("a"); !v.Equal(model.S("v")) {
		t.Errorf("te[a] = %s, want v", v)
	}
}

// TestConflictingMasters: two master tuples assigning different target
// values makes the specification non-Church-Rosser.
func TestConflictingMasters(t *testing.T) {
	s := model.MustSchema("r", "a", "b")
	ms := model.MustSchema("m", "a", "b")
	ie := model.NewEntityInstance(s)
	ie.MustAdd(model.MustTuple(s, model.S("k"), model.S("x")))
	im := model.NewMasterRelation(ms)
	im.MustAdd(model.MustTuple(ms, model.S("k"), model.S("v1")))
	im.MustAdd(model.MustTuple(ms, model.S("k"), model.S("v2")))
	rs := rule.MustSet(s, ms, &rule.Form2{
		RuleName:   "m1",
		Conds:      []rule.MasterCond{rule.CondMaster("a", "a")},
		TargetAttr: "b",
		MasterAttr: "b",
	})
	res, err := deduce(chase.Spec{Ie: ie, Im: im, Rules: rs}, chase.Options{})
	if err != nil {
		t.Fatalf("deduce: %v", err)
	}
	if res.CR {
		t.Fatalf("conflicting masters should not be CR, got %s", res.Target)
	}
}

// TestCyclicCurrencyConflict: two rules ordering the same pair in
// opposite directions with different values yields a conflict.
func TestCyclicCurrencyConflict(t *testing.T) {
	s := model.MustSchema("r", "a")
	ie := model.NewEntityInstance(s)
	ie.MustAdd(model.MustTuple(s, model.I(1)))
	ie.MustAdd(model.MustTuple(s, model.I(2)))
	up := &rule.Form1{RuleName: "up",
		LHS: []rule.Pred{rule.Cmp(rule.T1("a"), rule.Lt, rule.T2("a"))}, RHS: "a"}
	down := &rule.Form1{RuleName: "down",
		LHS: []rule.Pred{rule.Cmp(rule.T1("a"), rule.Gt, rule.T2("a"))}, RHS: "a"}
	res, err := deduce(chase.Spec{Ie: ie, Rules: rule.MustSet(s, nil, up, down)}, chase.Options{})
	if err != nil {
		t.Fatalf("deduce: %v", err)
	}
	if res.CR {
		t.Fatalf("opposite orders should conflict")
	}
}

// TestEmptyInstance: a zero-tuple instance is trivially Church-Rosser
// with an all-null target.
func TestEmptyInstance(t *testing.T) {
	s := model.MustSchema("r", "a")
	ie := model.NewEntityInstance(s)
	res, err := deduce(chase.Spec{Ie: ie, Rules: rule.MustSet(s, nil)}, chase.Options{})
	if err != nil {
		t.Fatalf("deduce: %v", err)
	}
	if !res.CR || res.Complete() {
		t.Fatalf("empty instance: CR=%v complete=%v", res.CR, res.Complete())
	}
}

// TestDisableAxioms: with axioms off and no rules, nothing is deduced.
func TestDisableAxioms(t *testing.T) {
	s := model.MustSchema("r", "a")
	ie := model.NewEntityInstance(s)
	ie.MustAdd(model.MustTuple(s, model.S("x")))
	res, err := deduce(chase.Spec{Ie: ie, Rules: rule.MustSet(s, nil)},
		chase.Options{DisableAxioms: true})
	if err != nil {
		t.Fatalf("deduce: %v", err)
	}
	if v, _ := res.Target.Get("a"); !v.IsNull() {
		t.Errorf("te[a] = %s, want null with axioms disabled", v)
	}
}

// TestNaiveAgreesOnPaperExample cross-checks the optimised engine
// against the reference implementation on the running example.
func TestNaiveAgreesOnPaperExample(t *testing.T) {
	spec := paperSpec(t)
	fast, err := deduce(spec, chase.Options{})
	if err != nil {
		t.Fatalf("deduce: %v", err)
	}
	slow := chase.Naive(spec, chase.Options{}, nil)
	if fast.CR != slow.CR {
		t.Fatalf("CR disagreement: fast=%v slow=%v (%s / %s)", fast.CR, slow.CR, fast.Conflict, slow.Conflict)
	}
	if !fast.Target.EqualTo(slow.Target) {
		t.Errorf("targets differ: fast=%s slow=%s", fast.Target, slow.Target)
	}

	// And on the non-CR variant of Example 6.
	rs, _ := spec.Rules.Append(spec.Ie.Schema(), spec.Im.Schema(), paperdata.Phi12())
	spec.Rules = rs
	fast2, err := deduce(spec, chase.Options{})
	if err != nil {
		t.Fatalf("deduce: %v", err)
	}
	slow2 := chase.Naive(spec, chase.Options{}, nil)
	if fast2.CR != slow2.CR {
		t.Fatalf("CR disagreement with phi12: fast=%v slow=%v", fast2.CR, slow2.CR)
	}
}

// TestTargetTemplateRespected: a partially filled template is kept and
// propagates through form-(2) rules.
func TestTargetTemplateRespected(t *testing.T) {
	spec := paperSpec(t)
	g, err := chase.NewGrounding(spec, chase.Options{})
	if err != nil {
		t.Fatalf("NewGrounding: %v", err)
	}
	tpl := model.NewTuple(spec.Ie.Schema())
	tpl.Set(paperdata.FN, model.S("Michael"))
	tpl.Set(paperdata.LN, model.S("Jordan"))
	res := g.Run(tpl)
	if !res.CR {
		t.Fatalf("template run should be CR: %s", res.Conflict)
	}
	if v, _ := res.Target.Get(paperdata.League); !v.Equal(model.S("NBA")) {
		t.Errorf("te[league] = %s, want NBA via master", v)
	}
}
