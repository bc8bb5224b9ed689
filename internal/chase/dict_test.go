package chase

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/rule"
)

// dictSchema builds a small schema + rule set for the dictionary tests.
func dictSpec(t *testing.T) (*model.Schema, *rule.Set) {
	t.Helper()
	schema := model.MustSchema("R", "a", "b")
	rules, err := rule.NewSet(schema, nil, &rule.Form1{
		RuleName: "r1",
		LHS:      []rule.Pred{rule.Prec("a")},
		RHS:      "b",
	})
	if err != nil {
		t.Fatal(err)
	}
	return schema, rules
}

// TestValueIDsStableAcrossExtend pins invariant 3a at the grounding
// level: every version of one entity's chain shares one overlay of the
// Shared's base, every tuple keeps its value ID across versions, new
// values get fresh IDs from the same overlay — also when two Extends of
// one version run at once — and the per-version value groups agree
// with the ID rows.
func TestValueIDsStableAcrossExtend(t *testing.T) {
	schema, rules := dictSpec(t)
	ie := model.NewEntityInstance(schema)
	for i := 0; i < 6; i++ {
		ie.MustAdd(model.MustTuple(schema, model.S(fmt.Sprintf("v%d", i%3)), model.I(int64(i%2))))
	}
	sh, err := NewShared(schema, nil, rules)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sh.NewGrounding(ie, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkGroups := func(g *Grounding) {
		t.Helper()
		for a := 0; a < g.nattr; a++ {
			for i := 0; i < g.n; i++ {
				id := g.idRow(a)[i]
				if id == model.NullID {
					continue
				}
				found := false
				for _, m := range g.groupFor(int32(a), id) {
					if int(m) == i {
						found = true
					}
				}
				if !found {
					t.Fatalf("tuple %d missing from its value group on attr %d", i, a)
				}
			}
		}
	}
	checkGroups(g)

	// Extend with one repeated value, one fresh value, one null.
	ng, err := g.Extend(
		model.MustTuple(schema, model.S("v0"), model.I(7)),
		model.MustTuple(schema, model.S("fresh"), model.NullValue()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if ng.dict != g.dict || g.dict == sh.dict {
		t.Fatal("the version chain does not share one overlay of the base")
	}
	for a := 0; a < g.nattr; a++ {
		for i := 0; i < g.n; i++ {
			if ng.idRow(a)[i] != g.idRow(a)[i] {
				t.Fatalf("attr %d tuple %d changed ID %d -> %d across Extend",
					a, i, g.idRow(a)[i], ng.idRow(a)[i])
			}
		}
	}
	if got, want := ng.idRow(0)[6], g.idRow(0)[0]; got != want {
		t.Fatalf("repeated value v0 interned as %d, existing tuples carry %d", got, want)
	}
	if id := ng.idRow(1)[7]; id != model.NullID {
		t.Fatalf("null value carries ID %d, want 0", id)
	}
	checkGroups(ng)

	// The parent's groups must be untouched by the child's extension
	// (in-flight checkers keep reading them).
	if grp := g.groupFor(0, g.idRow(0)[0]); len(grp) != 2 {
		t.Fatalf("parent group for v0 has %d members after Extend, want 2", len(grp))
	}
	if grp := ng.groupFor(0, g.idRow(0)[0]); len(grp) != 3 {
		t.Fatalf("child group for v0 has %d members, want 3", len(grp))
	}

	// Two Extends of one version share the overlay too: run at once,
	// they agree on the value both add and keep their own apart.
	var wg sync.WaitGroup
	kids := make([]*Grounding, 2)
	for k := range kids {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			kid, err := ng.Extend(
				model.MustTuple(schema, model.S("both"), model.I(9)),
				model.MustTuple(schema, model.S(fmt.Sprintf("only%d", k)), model.I(9)),
			)
			if err != nil {
				panic(err)
			}
			kids[k] = kid
		}(k)
	}
	wg.Wait()
	a0, a1 := kids[0].idRow(0), kids[1].idRow(0)
	if a0[8] != a1[8] || a0[9] == a1[9] || a0[9] == a0[8] || kids[0].dict != ng.dict {
		t.Fatalf("sibling Extends: \"both\" as %d and %d, own values as %d and %d", a0[8], a1[8], a0[9], a1[9])
	}
}

// TestSharedDictAcrossBatch grounds many instances of one Shared
// concurrently: every grounding resolves a rule constant to its one
// base ID, numbers its own entity's values in an overlay of its own,
// and the base never grows. Run under -race in CI, this also exercises
// the base's unsynchronised reads.
func TestSharedDictAcrossBatch(t *testing.T) {
	schema := model.MustSchema("R", "a", "b")
	rules, err := rule.NewSet(schema, nil, &rule.Form1{
		RuleName: "r1",
		LHS:      []rule.Pred{rule.Prec("a"), rule.Cmp(rule.T1("a"), rule.Ne, rule.C(model.S("common")))},
		RHS:      "b",
	})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShared(schema, nil, rules)
	if err != nil {
		t.Fatal(err)
	}
	base := sh.dict.Size()
	common, ok := sh.dict.Lookup(model.S("common"))
	if !ok {
		t.Fatal("the base lacks the rule constant")
	}
	const workers = 8
	gs := make([]*Grounding, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ie := model.NewEntityInstance(schema)
			ie.MustAdd(model.MustTuple(schema, model.S("common"), model.I(int64(w))))
			ie.MustAdd(model.MustTuple(schema, model.S(fmt.Sprintf("own%d", w)), model.I(int64(w))))
			g, err := sh.NewGrounding(ie, Options{})
			if err != nil {
				panic(err)
			}
			gs[w] = g
		}(w)
	}
	wg.Wait()
	for w, g := range gs {
		if g.idRow(0)[0] != common {
			t.Fatalf("worker %d resolved the constant as %d, the base as %d", w, g.idRow(0)[0], common)
		}
		if own := g.idRow(0)[1]; own < uint32(base) {
			t.Fatalf("worker %d's own value took base ID %d", w, own)
		}
		if id, ok := gs[(w+1)%workers].dict.Lookup(model.S(fmt.Sprintf("own%d", w))); ok {
			t.Fatalf("worker %d's own value is in another entity's overlay as %d", w, id)
		}
	}
	if sh.dict.Size() != base {
		t.Fatalf("grounding grew the base from %d to %d values", base, sh.dict.Size())
	}
}

// TestColdTemplateDoesNotGrowDict pins the serving-session memory
// contract: checking caller-built templates with values the dictionary
// has never seen must not intern them (the overlay is append-only and
// shared by every version — per-check growth would be an unbounded
// leak on a long update stream), and the verdicts must match a
// grounding that HAS seen the values.
func TestColdTemplateDoesNotGrowDict(t *testing.T) {
	schema, rules := dictSpec(t)
	ie := model.NewEntityInstance(schema)
	ie.MustAdd(model.MustTuple(schema, model.S("v0"), model.I(1)))
	ie.MustAdd(model.MustTuple(schema, model.S("v1"), model.I(2)))
	sh, err := NewShared(schema, nil, rules)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sh.NewGrounding(ie, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := g.Run(nil)
	if !res.CR {
		t.Fatal(res.Conflict)
	}
	before := g.Dict().Size()
	for i := 0; i < 50; i++ {
		tmpl := model.MustTuple(schema, model.S(fmt.Sprintf("novel-%d", i)), model.I(int64(1000+i)))
		fresh := g.Run(tmpl) // caller-built tuple: no cached ID row
		if fresh.CR {
			// Whatever the verdict, it must agree with the same check
			// against known values' semantics: a novel value equals no
			// instance value, so only axiom-level consequences apply.
			if got := fresh.Target.At(0); !got.Equal(tmpl.At(0)) {
				t.Fatalf("template value not adopted: %s", got)
			}
		}
	}
	if after := g.Dict().Size(); after != before {
		t.Fatalf("cold-template checks grew the dictionary %d -> %d", before, after)
	}
}

// TestCrossKindValueGrouping pins the ID semantics against the Naive
// reference on the canonicalization corners interning must respect:
// cross-kind numeric equality (I(3) vs F(3)), signed zeros, and
// numeric-looking strings staying distinct from numbers.
func TestCrossKindValueGrouping(t *testing.T) {
	schema := model.MustSchema("R", "x", "y")
	rules, err := rule.NewSet(schema, nil, &rule.Form1{
		RuleName: "corr",
		LHS:      []rule.Pred{rule.Prec("x")},
		RHS:      "y",
	})
	if err != nil {
		t.Fatal(err)
	}
	ie := model.NewEntityInstance(schema)
	ie.MustAdd(model.MustTuple(schema, model.I(3), model.S("p")))
	ie.MustAdd(model.MustTuple(schema, model.F(3), model.S("q")))   // numerically equal to I(3)
	ie.MustAdd(model.MustTuple(schema, model.S("3"), model.S("p"))) // a string, NOT the number
	ie.MustAdd(model.MustTuple(schema, model.F(0), model.S("p")))
	ie.MustAdd(model.MustTuple(schema, model.I(0), model.S("q"))) // equal to F(0)
	ie.MustAdd(model.MustTuple(schema, model.NullValue(), model.S("p")))

	spec := Spec{Ie: ie, Rules: rules}
	g, err := NewGrounding(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := RunTerminal(g, nil)
	want := Naive(spec, Options{}, nil)
	if got.CR != want.CR {
		t.Fatalf("CR: grounded %v, naive %v (%s)", got.CR, want.CR, got.Conflict)
	}
	if !got.CR {
		t.Fatalf("spec unexpectedly not CR: %s", got.Conflict)
	}
	for a := 0; a < schema.Arity(); a++ {
		gp, np := got.Orders.Pairs(a), want.Orders.Pairs(a)
		if fmt.Sprint(gp) != fmt.Sprint(np) {
			t.Fatalf("attr %d orders diverge:\n grounded %v\n naive    %v", a, gp, np)
		}
	}
	if !got.Target.EqualTo(want.Target) {
		t.Fatalf("targets diverge: %s vs %s", got.Target, want.Target)
	}
	// The ID rows must group I(3) with F(3) and I(0) with F(0), keep
	// S("3") apart, and give nulls ID 0.
	if g.idRow(0)[0] != g.idRow(0)[1] {
		t.Fatal("I(3) and F(3) carry different IDs")
	}
	if g.idRow(0)[0] == g.idRow(0)[2] {
		t.Fatal("number 3 and string \"3\" share an ID")
	}
	if g.idRow(0)[3] != g.idRow(0)[4] {
		t.Fatal("F(0) and I(0) carry different IDs")
	}
	if g.idRow(0)[5] != model.NullID {
		t.Fatal("null does not carry NullID")
	}
}

// TestTargetsLeaveWithoutIDRow: the target Run hands to its caller
// carries no ID row, so keeping it does not keep the entity's overlay
// reachable.
func TestTargetsLeaveWithoutIDRow(t *testing.T) {
	schema, rules := dictSpec(t)
	ie := model.NewEntityInstance(schema)
	ie.MustAdd(model.MustTuple(schema, model.S("v0"), model.I(1)))
	ie.MustAdd(model.MustTuple(schema, model.S("v0"), model.I(1)))
	g, err := NewGrounding(Spec{Ie: ie, Rules: rules}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := g.Run(nil)
	if !res.Complete() {
		t.Fatalf("deduced %v (CR %v), want a complete target", res.Target, res.CR)
	}
	for a := 0; a < schema.Arity(); a++ {
		if _, ok := res.Target.IDIn(g.dict, a); ok {
			t.Fatalf("Run's target carries an ID row at position %d", a)
		}
	}
}
