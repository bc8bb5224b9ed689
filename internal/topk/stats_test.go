package topk_test

import (
	"errors"
	"testing"

	"repro/internal/chase"
	"repro/internal/model"
	"repro/internal/rule"
	"repro/internal/topk"
)

// unconstrained builds a grounding whose open attributes carry no rules,
// so every assignment passes the check — the setting where the
// enumeration behaviour of the algorithms is fully visible.
func unconstrained(t *testing.T, listLens []int) (*chase.Grounding, *model.Tuple) {
	t.Helper()
	attrs := make([]string, len(listLens)+1)
	attrs[0] = "id"
	for i := range listLens {
		attrs[i+1] = string(rune('a' + i))
	}
	s := model.MustSchema("r", attrs...)
	ie := model.NewEntityInstance(s)
	// Column i holds listLens[i] distinct values where value v appears
	// (l - v) times, giving a strictly ranked occurrence list. The tuple
	// count is the largest triangular total.
	n := 0
	for _, l := range listLens {
		if t := l * (l + 1) / 2; t > n {
			n = t
		}
	}
	for r := 0; r < n; r++ {
		vals := make([]model.Value, len(attrs))
		vals[0] = model.S("e")
		for i, l := range listLens {
			rr := r % (l * (l + 1) / 2)
			v := 0
			for cum := l; rr >= cum; v++ {
				cum += l - v - 1
			}
			vals[i+1] = model.I(int64(v))
		}
		ie.MustAdd(model.MustTuple(s, vals...))
	}
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Rules: rule.MustSet(s, nil)}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := g.Run(nil)
	if !res.CR {
		t.Fatal(res.Conflict)
	}
	return g, res.Target
}

// TestEarlyTerminationChecks: with every assignment passing, TopKCT must
// verify exactly k assignments (Proposition 7's early termination).
func TestEarlyTerminationChecks(t *testing.T) {
	g, te := unconstrained(t, []int{4, 4, 4})
	for _, k := range []int{1, 3, 7} {
		_, stats, err := topk.TopKCT(g, te, topk.Preference{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Checks != k {
			t.Errorf("k=%d: checks = %d, want exactly k", k, stats.Checks)
		}
	}
}

// TestHeapPopEconomy: TopKCT must not pop each heap beyond what the k-th
// result requires (the instance-optimality claim): for k=1 only the top
// of each heap is needed (plus the one-step lookahead of the expansion).
func TestHeapPopEconomy(t *testing.T) {
	g, te := unconstrained(t, []int{6, 6, 6})
	_, stats, err := topk.TopKCT(g, te, topk.Preference{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	// m pops to prime + at most m lookahead pops on expansion.
	if stats.Pops > 6 {
		t.Errorf("k=1 pops = %d, want ≤ 6", stats.Pops)
	}
	full := 6 + 6 + 6 // the exhaustive alternative
	if stats.Pops >= full {
		t.Errorf("pops = %d did not beat exhaustive %d", stats.Pops, full)
	}
}

// TestMaxChecksBudget: every algorithm stops at the check budget and
// returns what it found. Every assignment passes, so the exact
// algorithms find one candidate per check, and TopKCTh's repair spends
// one check per open attribute on each candidate: a repair the budget
// cuts short is dropped.
func TestMaxChecksBudget(t *testing.T) {
	g, te := unconstrained(t, []int{5, 5, 5})
	algos := []struct {
		name string
		run  func(*chase.Grounding, *model.Tuple, topk.Preference) ([]topk.Candidate, topk.Stats, error)
		want func(budget int) int // candidates found
	}{
		{"TopKCT", topk.TopKCT, func(b int) int { return b }},
		{"RankJoinCT", topk.RankJoinCT, func(b int) int { return b }},
		{"TopKCTh", topk.TopKCTh, func(b int) int { return b / 3 }},
	}
	for _, a := range algos {
		for budget := 1; budget <= 10; budget++ {
			cands, stats, err := a.run(g, te, topk.Preference{K: 20, MaxChecks: budget})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Checks != budget {
				t.Errorf("%s budget %d: checks = %d, want the budget", a.name, budget, stats.Checks)
			}
			if want := a.want(budget); len(cands) != want {
				t.Errorf("%s budget %d: candidates = %d, want %d", a.name, budget, len(cands), want)
			}
		}
	}
}

// TestMaxDomainCap: master-only tail values are truncated but instance
// values survive.
func TestMaxDomainCap(t *testing.T) {
	s := model.MustSchema("r", "id", "m")
	ie := model.NewEntityInstance(s)
	ie.MustAdd(model.MustTuple(s, model.S("e"), model.S("inst-a")))
	ie.MustAdd(model.MustTuple(s, model.S("e"), model.S("inst-b")))
	ms := model.MustSchema("master", "id", "m")
	im := model.NewMasterRelation(ms)
	for i := 0; i < 500; i++ {
		im.MustAdd(model.MustTuple(ms, model.S("other"), model.I(int64(i))))
	}
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Im: im, Rules: rule.MustSet(s, ms)}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	te := g.Run(nil).Target
	cands, stats, err := topk.TopKCT(g, te, topk.Preference{K: 600, MaxDomain: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Domain: 2 instance values + 10 kept master values + ⊥ = 13.
	if len(cands) > 13 {
		t.Errorf("cap ignored: %d candidates", len(cands))
	}
	if stats.Checks > 13 {
		t.Errorf("checked %d assignments, cap ignored", stats.Checks)
	}
	// The two instance values must rank first.
	if v, _ := cands[0].Tuple.Get("m"); v.Kind() != model.String {
		t.Errorf("top candidate should carry an instance value, got %v", v)
	}
}

// TestRankJoinBudgetReturnsPartial: hitting the join budget aborts with
// ErrBudget (specifically — callers gate on errors.Is) but still
// returns the candidates verified so far, with the Stats of the aborted
// search populated so the caller can see how far it got.
func TestRankJoinBudgetReturnsPartial(t *testing.T) {
	g, te := unconstrained(t, []int{8, 8, 8, 8})
	// Unbounded reference run: every assignment passes the check, so
	// with MaxGenerated high the search finds real candidates.
	full, fullStats, err := topk.RankJoinCTOpts(g, te, topk.Preference{K: 50},
		topk.RankJoinOptions{MaxGenerated: 1_000_000})
	if err != nil || len(full) == 0 {
		t.Fatalf("reference run: %d candidates, err %v", len(full), err)
	}
	cands, stats, err := topk.RankJoinCTOpts(g, te, topk.Preference{K: 5000},
		topk.RankJoinOptions{MaxGenerated: 100})
	if !errors.Is(err, topk.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if len(cands) == 0 {
		t.Fatal("budget abort dropped the partial candidates")
	}
	if stats.Generated <= 100 || stats.Pops == 0 || stats.Checks == 0 {
		t.Fatalf("aborted search returned empty Stats: %+v", stats)
	}
	if stats.Generated >= fullStats.Generated {
		t.Fatalf("budget did not bite: generated %d vs %d unbounded",
			stats.Generated, fullStats.Generated)
	}
	// Partial results are still valid candidates, and they agree with
	// the prefix of the unbounded run (emission order is deterministic).
	for i, c := range cands {
		if !g.Run(c.Tuple).CR {
			t.Errorf("partial result fails check")
		}
		if i < len(full) && (c.Tuple.Key() != full[i].Tuple.Key() || c.Score != full[i].Score) {
			t.Errorf("partial candidate %d diverges from the unbounded run", i)
		}
	}
}

// TestRankJoinNegativeBudgetRejected: a negative MaxGenerated is a
// caller bug, not "unlimited" and not "abort immediately" — it is
// rejected up front with a plain error (not ErrBudget), before any
// join state is built.
func TestRankJoinNegativeBudgetRejected(t *testing.T) {
	g, te := unconstrained(t, []int{4, 4})
	cands, stats, err := topk.RankJoinCTOpts(g, te, topk.Preference{K: 5},
		topk.RankJoinOptions{MaxGenerated: -1})
	if err == nil {
		t.Fatal("negative MaxGenerated was accepted")
	}
	if errors.Is(err, topk.ErrBudget) {
		t.Fatalf("negative MaxGenerated reported as a budget abort: %v", err)
	}
	if cands != nil {
		t.Fatalf("rejected call returned candidates: %v", cands)
	}
	if stats.Checks != 0 || stats.Generated != 0 {
		t.Fatalf("rejected call did work: %+v", stats)
	}
}
