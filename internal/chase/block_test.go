package chase_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/model"
	"repro/internal/rule"
)

// blockSpec returns a specification over n tuples whose columns cross
// every seeding shape of the grounding builder: nul is null in every
// tuple (one ϕ7 null clique) and one holds the same value in every
// tuple (one ϕ9 clique), so both span whole 64-bit words of a bulk
// seeded block; a has repeated values and a few nulls, and b follows
// a. The rules are Church-Rosser on it and use every compiled shape: a
// zero-premise pair rule (cur), a correlation rule with a guard (corr),
// a ground step waiting on two order facts (both) and one waiting on a
// target value (tgt), which only fires in Run.
func blockSpec(n int) chase.Spec {
	s := model.MustSchema("blocks", "a", "b", "nul", "one")
	rng := rand.New(rand.NewSource(64))
	ie := model.NewEntityInstance(s)
	for i := 0; i < n; i++ {
		a, b := model.NullValue(), model.NullValue()
		if rng.Intn(8) != 0 {
			v := int64(rng.Intn(12))
			a, b = model.I(v), model.I(v/2)
		}
		ie.MustAdd(model.MustTuple(s, a, b, model.NullValue(), model.S("k")))
	}
	rules := rule.MustSet(s, nil,
		&rule.Form1{RuleName: "cur",
			LHS: []rule.Pred{rule.Cmp(rule.T1("a"), rule.Lt, rule.T2("a"))}, RHS: "a"},
		&rule.Form1{RuleName: "corr",
			LHS: []rule.Pred{rule.Prec("a"), rule.Cmp(rule.T2("b"), rule.Ne, rule.C(model.NullValue()))}, RHS: "b"},
		&rule.Form1{RuleName: "both",
			LHS: []rule.Pred{rule.PrecEq("a"), rule.PrecEq("one")}, RHS: "b"},
		&rule.Form1{RuleName: "tgt",
			LHS: []rule.Pred{rule.Cmp(rule.T1("a"), rule.Lt, rule.T2("a")), rule.Cmp(rule.Te("one"), rule.Eq, rule.C(model.S("k")))}, RHS: "b"},
	)
	return chase.Spec{Ie: ie, Rules: rules}
}

// TestExtendBlockBoundaries extends bases of 0, 1, 63, 64 and 65 tuples
// by one block of 1, 63, 64, 65, 128 or 129 tuples, with and without
// the axioms, and checks each result against a fresh grounding of the
// whole instance (verdict, target, orders bit for bit, Steps) and
// against the Naive oracle (verdict, target, orders). The blocks start
// and end on both sides of word boundaries, where the bulk seeds and
// the block's trigger and correlation firing change words.
func TestExtendBlockBoundaries(t *testing.T) {
	bases, deltas := []int{0, 1, 63, 64, 65}, []int{1, 63, 64, 65, 128, 129}
	if testing.Short() {
		bases, deltas = []int{0, 63, 65}, []int{1, 64, 129}
	}
	for _, disableAxioms := range []bool{false, true} {
		opts := chase.Options{DisableAxioms: disableAxioms}
		fresh := map[int]chase.Terminal{}
		for _, base := range bases {
			for _, delta := range deltas {
				n := base + delta
				t.Run(fmt.Sprintf("noAxioms=%v/base=%d/delta=%d", disableAxioms, base, delta), func(t *testing.T) {
					spec := blockSpec(n)
					want, ok := fresh[n]
					if !ok {
						g, err := chase.NewGrounding(spec, opts)
						if err != nil {
							t.Fatal(err)
						}
						want = chase.RunTerminal(g, nil)
						if !want.CR {
							t.Fatalf("fresh grounding is not Church-Rosser: %s", want.Conflict)
						}
						sameAsNaive(t, spec, want, chase.Naive(spec, opts, nil))
						fresh[n] = want
					}
					got := chase.RunTerminal(groundPrefix(t, spec, opts, base, []int{delta}), nil)
					if !sameResult(t, n, spec.Ie.Schema().Arity(), want, got) {
						t.Fatal("extended grounding diverged from the fresh one")
					}
				})
			}
		}
	}
}

// sameAsNaive fails t unless the engine's result agrees with the Naive
// oracle's on the verdict, the target and every non-reflexive order
// pair (the oracle derives reflexive pairs only through ϕ9).
func sameAsNaive(t *testing.T, spec chase.Spec, fast, slow chase.Terminal) {
	t.Helper()
	if fast.CR != slow.CR {
		t.Fatalf("CR engine=%v (%s) naive=%v (%s)", fast.CR, fast.Conflict, slow.CR, slow.Conflict)
	}
	if !fast.Target.EqualTo(slow.Target) {
		t.Fatalf("target engine=%s naive=%s", fast.Target, slow.Target)
	}
	n := spec.Ie.Size()
	for a := 0; a < spec.Ie.Schema().Arity(); a++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && fast.Orders.Has(a, i, j) != slow.Orders.Has(a, i, j) {
					t.Fatalf("order[%d] (%d,%d) engine=%v naive=%v", a, i, j,
						fast.Orders.Has(a, i, j), slow.Orders.Has(a, i, j))
				}
			}
		}
	}
}
