package chase

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/rule"
)

// TestPooledResetAfterConflict checks that a pooled engine's reset
// leaves no pending work behind when a conflict stopped the previous
// run part-way. The entity is wider than one 64-bit word, so a pending
// row spans words: a conflict at the row's word-0 bit leaves its word-1
// bit pending after the slot has left the ring, and a target conflict
// at push time leaves the first target and a ring slot pending. After
// each reset no pending bit, slot or target may survive, and the next
// checks must answer — verdict, target and terminal orders — exactly as
// a fresh Checker's do.
func TestPooledResetAfterConflict(t *testing.T) {
	const n = 130 // three words per order row
	const (
		row   = 1  // a = "x"
		null  = 2  // a = ⊥: ϕ7 puts it below row, in word 0
		other = 99 // a = "w", unordered with row, in word 1
		top   = 100
	)
	schema := model.MustSchema("R", "a", "b")
	rules, err := rule.NewSet(schema, nil, &rule.Form1{
		RuleName: "corr",
		LHS:      []rule.Pred{rule.Prec("b")},
		RHS:      "a",
	})
	if err != nil {
		t.Fatal(err)
	}
	ie := model.NewEntityInstance(schema)
	for i := 0; i < n; i++ {
		a, b := model.S("z"), model.S(fmt.Sprintf("b%d", i))
		switch i {
		case row:
			a = model.S("x")
		case null:
			a = model.NullValue()
		case other:
			a = model.S("w")
		case top:
			a = model.S("y")
		}
		ie.MustAdd(model.MustTuple(schema, a, b))
	}
	g, err := NewGrounding(Spec{Ie: ie, Rules: rules}, Options{DisableVerdictCache: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(g)
	e := c.e
	assertClean := func(when string) {
		t.Helper()
		for k, w := range e.pairs.masks {
			if w != 0 {
				slot := k / e.pairs.w
				t.Fatalf("%s: attr %d row %d word %d keeps pending bits %#x",
					when, slot/e.pairs.n, slot%e.pairs.n, k%e.pairs.w, w)
			}
		}
		if e.pairs.size != 0 {
			t.Fatalf("%s: %d slots left on the ring", when, e.pairs.size)
		}
		for s, q := range e.pairs.queued {
			if q {
				t.Fatalf("%s: slot %d still marked queued", when, s)
			}
		}
		for a, id := range e.tgtID {
			if id != model.NullID || !e.tgtVal[a].IsNull() {
				t.Fatalf("%s: attr %d keeps a pending target", when, a)
			}
		}
		if len(e.tgtQ) != 0 || len(e.stepQ) != 0 || e.conflict != "" {
			t.Fatalf("%s: %d targets, %d steps queued, conflict %q",
				when, len(e.tgtQ), len(e.stepQ), e.conflict)
		}
	}

	// te[b] = b100 puts every tuple ⪯b tuple 100 (ϕ8), and the rule
	// pushes x ⪯a 100 into every row of a, the cut-short row included.
	tpl := model.NewTuple(schema)
	tpl.SetAt(1, model.S("b100"))
	checkLikeFresh := func(when string) {
		t.Helper()
		for _, tmpl := range []*model.Tuple{tpl, nil} {
			fresh := NewChecker(g)
			want := fresh.CheckConflict(tmpl)
			if got := c.CheckConflict(tmpl); got != want {
				t.Fatalf("%s, template %v: conflict %q, a fresh checker's %q", when, tmpl, got, want)
			}
			if want == "" && !c.e.te.EqualTo(fresh.e.te) {
				t.Fatalf("%s, template %v: te %s, a fresh checker's %s", when, tmpl, c.e.te, fresh.e.te)
			}
			for a := 0; a < g.nattr; a++ {
				got, want := c.e.orders.Pairs(a), fresh.e.orders.Pairs(a)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s, template %v: terminal order on attr %d differs from a fresh checker's", when, tmpl, a)
				}
			}
		}
	}

	// A row cut short: the word-0 bit conflicts with ϕ7, the word-1 bit
	// is still pending when the conflict stops the row.
	e.pushPair(0, row, null)
	e.pushPair(0, row, other)
	e.drain()
	if e.conflict == "" {
		t.Fatal("pushing a non-null below a null must conflict")
	}
	e.reset()
	assertClean("after a row cut short")
	checkLikeFresh("after a row cut short")

	// A target conflict at push time, with a pair slot and the first
	// target still pending.
	e.reset()
	e.pushPair(0, row, other)
	e.pushTarget(0, g.val(0, row), g.idRow(0)[row])
	e.pushTarget(0, g.val(0, other), g.idRow(0)[other])
	if e.conflict == "" {
		t.Fatal("two different targets for one attribute must conflict")
	}
	e.drain()
	e.reset()
	assertClean("after a target conflict")
	checkLikeFresh("after a target conflict")
}
