package chase_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/chase"
	"repro/internal/model"
	"repro/internal/paperdata"
	"repro/internal/rule"
)

// groundPrefix grounds the first base tuples of spec.Ie fresh and then
// absorbs the rest through Extend in the given batch sizes.
func groundPrefix(t testing.TB, spec chase.Spec, opts chase.Options, base int, batches []int) *chase.Grounding {
	t.Helper()
	ie := model.NewEntityInstance(spec.Ie.Schema())
	for i := 0; i < base; i++ {
		ie.MustAdd(spec.Ie.Tuple(i))
	}
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Im: spec.Im, Rules: spec.Rules}, opts)
	if err != nil {
		t.Fatalf("base grounding: %v", err)
	}
	next := base
	for _, sz := range batches {
		delta := make([]*model.Tuple, 0, sz)
		for i := 0; i < sz; i++ {
			delta = append(delta, spec.Ie.Tuple(next))
			next++
		}
		g, err = g.Extend(delta...)
		if err != nil {
			t.Fatalf("extend: %v", err)
		}
	}
	if next != spec.Ie.Size() {
		t.Fatalf("split covers %d of %d tuples", next, spec.Ie.Size())
	}
	return g
}

// sameResult compares two chase results on everything the incremental
// path promises to preserve: the CR verdict and, when CR, the deduced
// target, the terminal orders (bit for bit) and the residual step
// count. Conflict strings may legitimately differ (the first invalid
// step depends on enforcement order), so they are not compared.
func sameResult(t *testing.T, n, nattr int, fresh, inc chase.Terminal) bool {
	t.Helper()
	if fresh.CR != inc.CR {
		t.Logf("CR fresh=%v (%s) incremental=%v (%s)", fresh.CR, fresh.Conflict, inc.CR, inc.Conflict)
		return false
	}
	if !fresh.CR {
		return true
	}
	if !fresh.Target.EqualTo(inc.Target) {
		t.Logf("target fresh=%s incremental=%s", fresh.Target, inc.Target)
		return false
	}
	if fresh.Steps != inc.Steps {
		t.Logf("steps fresh=%d incremental=%d", fresh.Steps, inc.Steps)
		return false
	}
	for a := 0; a < nattr; a++ {
		fr, ir := fresh.Orders, inc.Orders
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if fr.Has(a, i, j) != ir.Has(a, i, j) {
					t.Logf("order[%d] (%d,%d) fresh=%v incremental=%v", a, i, j, fr.Has(a, i, j), ir.Has(a, i, j))
					return false
				}
			}
		}
	}
	return true
}

// TestExtendMatchesFresh is the central incremental-equivalence
// property: for random specifications and random splits of the instance
// into a base plus 1–3 Extend batches, the extended grounding must
// answer every Run — from the all-null template and from a candidate
// template — exactly as a fresh grounding over the full instance does.
func TestExtendMatchesFresh(t *testing.T) {
	for _, disableAxioms := range []bool{false, true} {
		name := "axioms"
		if disableAxioms {
			name = "noAxioms"
		}
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				spec, tpl := randSpec(rng)
				n := spec.Ie.Size()
				if n < 2 {
					return true
				}
				opts := chase.Options{DisableAxioms: disableAxioms}
				fresh, err := chase.NewGrounding(spec, opts)
				if err != nil {
					t.Logf("seed %d: grounding error %v", seed, err)
					return false
				}
				// Random split: base of 1..n-1 tuples, remainder in 1–3 batches.
				base := 1 + rng.Intn(n-1)
				rest := n - base
				var batches []int
				for rest > 0 {
					sz := 1 + rng.Intn(rest)
					batches = append(batches, sz)
					rest -= sz
				}
				inc := groundPrefix(t, spec, opts, base, batches)
				if inc.Version() != len(batches) {
					t.Logf("seed %d: version %d after %d batches", seed, inc.Version(), len(batches))
					return false
				}
				nattr := spec.Ie.Schema().Arity()
				if !sameResult(t, n, nattr, chase.RunTerminal(fresh, nil), chase.RunTerminal(inc, nil)) {
					t.Logf("seed %d: Run(nil) diverged (base=%d batches=%v)", seed, base, batches)
					return false
				}
				if tpl != nil && !sameResult(t, n, nattr, chase.RunTerminal(fresh, tpl), chase.RunTerminal(inc, tpl)) {
					t.Logf("seed %d: Run(tpl) diverged (base=%d batches=%v)", seed, base, batches)
					return false
				}
				// Pooled checks against the extended version agree with the
				// fresh grounding's verdicts too.
				if tpl != nil {
					c := chase.NewChecker(inc)
					if c.Check(tpl) != fresh.Run(tpl).CR {
						t.Logf("seed %d: pooled check diverged", seed)
						return false
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

// TestExtendLeavesParentUntouched: a grounding version is immutable —
// extending it must not change what the parent (or a checker pooled on
// the parent) answers.
func TestExtendLeavesParentUntouched(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec, tpl := randSpec(rng)
		n := spec.Ie.Size()
		if n < 2 {
			return true
		}
		base := 1 + rng.Intn(n-1)
		ie := model.NewEntityInstance(spec.Ie.Schema())
		for i := 0; i < base; i++ {
			ie.MustAdd(spec.Ie.Tuple(i))
		}
		g, err := chase.NewGrounding(chase.Spec{Ie: ie, Im: spec.Im, Rules: spec.Rules}, chase.Options{})
		if err != nil {
			return false
		}
		before := g.Run(tpl)
		checker := chase.NewChecker(g)
		ext, err := g.Extend(spec.Ie.Tuples()[base:]...)
		if err != nil {
			t.Logf("seed %d: extend error %v", seed, err)
			return false
		}
		if ext == g || ext.Version() != 1 || g.Version() != 0 {
			return false
		}
		after := g.Run(tpl)
		if before.CR != after.CR {
			return false
		}
		if before.CR && !before.Target.EqualTo(after.Target) {
			return false
		}
		// A checker created before the extension keeps answering for the
		// old evidence.
		if tpl != nil && checker.Check(tpl) != before.CR {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestExtendPaperExample replays the running example incrementally: the
// four stat tuples arrive one at a time, and after the last one the
// deduced target is the complete tuple of Example 5 — identical to the
// batch deduction.
func TestExtendPaperExample(t *testing.T) {
	ie := paperdata.Stat()
	im := paperdata.NBA()
	rs, err := rule.NewSet(ie.Schema(), im.Schema(), paperdata.Rules()...)
	if err != nil {
		t.Fatal(err)
	}
	spec := chase.Spec{Ie: ie, Im: im, Rules: rs}
	fresh, err := chase.NewGrounding(spec, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches := make([]int, ie.Size()-1)
	for i := range batches {
		batches[i] = 1
	}
	inc := groundPrefix(t, spec, chase.Options{}, 1, batches)
	if !sameResult(t, ie.Size(), ie.Schema().Arity(), chase.RunTerminal(fresh, nil), chase.RunTerminal(inc, nil)) {
		t.Fatal("incremental replay of the paper example diverged")
	}
	res := inc.Run(nil)
	if !res.CR || !res.Target.EqualTo(paperdata.Target()) {
		t.Fatalf("expected the Example 5 target, got CR=%v target=%s", res.CR, res.Target)
	}
}

// TestExtendIntroducesConflict: new evidence can break the Church-Rosser
// property, and the extended version must report it just like a fresh
// grounding over the full instance would.
func TestExtendIntroducesConflict(t *testing.T) {
	s := model.MustSchema("r", "a")
	rules := rule.MustSet(s, nil,
		&rule.Form1{RuleName: "up",
			LHS: []rule.Pred{rule.Cmp(rule.T1("a"), rule.Lt, rule.T2("a"))}, RHS: "a"},
		&rule.Form1{RuleName: "down",
			LHS: []rule.Pred{rule.Cmp(rule.T1("a"), rule.Gt, rule.T2("a"))}, RHS: "a"},
	)
	ie := model.NewEntityInstance(s)
	ie.MustAdd(model.MustTuple(s, model.I(1)))
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Rules: rules}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Run(nil).CR {
		t.Fatal("single tuple must be Church-Rosser")
	}
	ext, err := g.Extend(model.MustTuple(s, model.I(2)))
	if err != nil {
		t.Fatal(err)
	}
	if ext.Run(nil).CR {
		t.Fatal("the two opposed rules must conflict on the extended instance")
	}
	if !g.Run(nil).CR {
		t.Fatal("the parent version must stay Church-Rosser")
	}
}

// TestExtendLongChain drives one entity through enough single-tuple
// deltas to cross the trigger-layer compaction threshold (32 layers)
// several times over, checking after every step that the extended
// grounding still answers exactly like a fresh grounding on the
// accumulated instance.
func TestExtendLongChain(t *testing.T) {
	s := model.MustSchema("r", "a", "b", "c")
	rules := rule.MustSet(s, nil,
		// Plain form-1 rules (not correlation-shaped), so every delta
		// registers real trigger layers.
		&rule.Form1{RuleName: "curA",
			LHS: []rule.Pred{rule.Cmp(rule.T1("a"), rule.Lt, rule.T2("a"))}, RHS: "a"},
		&rule.Form1{RuleName: "both",
			LHS: []rule.Pred{rule.Prec("a"), rule.Prec("b")}, RHS: "c"},
		&rule.Form1{RuleName: "curB",
			LHS: []rule.Pred{rule.Cmp(rule.T1("b"), rule.Lt, rule.T2("b"))}, RHS: "b"},
	)
	rng := rand.New(rand.NewSource(11))
	mk := func(i int) *model.Tuple {
		return model.MustTuple(s,
			model.I(int64(i)),
			model.I(int64(rng.Intn(40))),
			model.I(int64(rng.Intn(5))))
	}
	first := mk(0)
	seed := model.NewEntityInstance(s)
	seed.MustAdd(first)
	g, err := chase.NewGrounding(chase.Spec{Ie: seed, Rules: rules}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// full mirrors the accumulated evidence for the fresh-grounding
	// comparisons; it never aliases any grounding's own instance.
	full := model.NewEntityInstance(s)
	full.MustAdd(first)
	const steps = 80 // > 2 × maxTrigLayers compactions
	for i := 1; i <= steps; i++ {
		tp := mk(i)
		full.MustAdd(tp)
		g, err = g.Extend(tp)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if g.Version() != i {
			t.Fatalf("step %d: version %d", i, g.Version())
		}
		// Spot-check against a fresh grounding at every compaction
		// boundary and at the end (a fresh grounding per step would
		// make the test quadratic for no extra coverage).
		if i%16 != 0 && i != steps {
			continue
		}
		fresh, err := chase.NewGrounding(chase.Spec{Ie: full, Rules: rules}, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(t, full.Size(), s.Arity(), chase.RunTerminal(fresh, nil), chase.RunTerminal(g, nil)) {
			t.Fatalf("step %d: extended grounding diverged from fresh", i)
		}
	}
}

// TestExtendEdgeCases covers the trivial deltas: an empty Extend returns
// the receiver unchanged, and mismatched schemas are rejected.
func TestExtendEdgeCases(t *testing.T) {
	ie := paperdata.Stat()
	im := paperdata.NBA()
	rs, err := rule.NewSet(ie.Schema(), im.Schema(), paperdata.Rules()...)
	if err != nil {
		t.Fatal(err)
	}
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Im: im, Rules: rs}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	same, err := g.Extend()
	if err != nil || same != g {
		t.Fatalf("empty Extend: got (%p, %v), want the receiver back", same, err)
	}
	other := model.MustSchema("other", "x")
	if _, err := g.Extend(model.MustTuple(other, model.I(1))); err == nil {
		t.Fatal("Extend accepted a tuple of a foreign schema")
	}
}
