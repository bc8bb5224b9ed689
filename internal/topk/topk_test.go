package topk_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/chase"
	"repro/internal/model"
	"repro/internal/paperdata"
	"repro/internal/rule"
	"repro/internal/topk"
)

// example9Grounding reproduces the setting of Example 9: the paper spec
// with team dropped from ϕ6, so te[team] and te[arena] are null.
func example9Grounding(t *testing.T) (*chase.Grounding, *model.Tuple) {
	t.Helper()
	ie := paperdata.Stat()
	im := paperdata.NBA()
	var rules []rule.Rule
	for _, r := range paperdata.Rules() {
		if r.Name() == "phi6b" { // "drop team from ϕ6"
			continue
		}
		rules = append(rules, r)
	}
	rs, err := rule.NewSet(ie.Schema(), im.Schema(), rules...)
	if err != nil {
		t.Fatalf("rules: %v", err)
	}
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Im: im, Rules: rs}, chase.Options{})
	if err != nil {
		t.Fatalf("grounding: %v", err)
	}
	res := g.Run(nil)
	if !res.CR {
		t.Fatalf("example 9 spec should be CR: %s", res.Conflict)
	}
	if res.Complete() {
		t.Fatalf("example 9 target should be incomplete")
	}
	return g, res.Target
}

// TestExample9TopCandidate: the top candidate must restore the full
// paper target (team = Chicago Bulls, arena = United Center, score 4 on
// the two open attributes under occurrence counting).
func TestExample9TopCandidate(t *testing.T) {
	g, te := example9Grounding(t)
	for _, algo := range []struct {
		name string
		run  func() ([]topk.Candidate, topk.Stats, error)
	}{
		{"TopKCT", func() ([]topk.Candidate, topk.Stats, error) {
			return topk.TopKCT(g, te, topk.Preference{K: 2})
		}},
		{"RankJoinCT", func() ([]topk.Candidate, topk.Stats, error) {
			return topk.RankJoinCT(g, te, topk.Preference{K: 2})
		}},
		{"TopKCTh", func() ([]topk.Candidate, topk.Stats, error) {
			return topk.TopKCTh(g, te, topk.Preference{K: 2})
		}},
	} {
		t.Run(algo.name, func(t *testing.T) {
			cands, _, err := algo.run()
			if err != nil {
				t.Fatalf("%v", err)
			}
			if len(cands) == 0 {
				t.Fatalf("no candidates")
			}
			if !cands[0].Tuple.EqualTo(paperdata.Target()) {
				t.Errorf("top candidate = %s, want the paper target", cands[0].Tuple)
			}
			// Every returned candidate must pass the chase check and keep
			// te's non-null values.
			for _, c := range cands {
				if !g.Run(c.Tuple).CR {
					t.Errorf("candidate %s fails check", c.Tuple)
				}
				for a := 0; a < te.Schema().Arity(); a++ {
					if v := te.At(a); !v.IsNull() && !c.Tuple.At(a).Equal(v) {
						t.Errorf("candidate overrode te[%s]", te.Schema().Attr(a))
					}
				}
			}
		})
	}
}

// TestExample9EarlyTermination: TopKCT must not exhaust the candidate
// space (3 team values + ⊥) × (3 arena values + ⊥) = 16 assignments for
// k = 2.
func TestExample9EarlyTermination(t *testing.T) {
	g, te := example9Grounding(t)
	cands, stats, err := topk.TopKCT(g, te, topk.Preference{K: 2})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(cands) != 2 {
		t.Fatalf("want 2 candidates, got %d", len(cands))
	}
	if stats.Checks >= 16 {
		t.Errorf("TopKCT checked %d of 16 assignments; expected early termination", stats.Checks)
	}
}

// randProblem builds a random Church-Rosser grounding with an incomplete
// target for cross-algorithm comparison.
func randProblem(rng *rand.Rand) (*chase.Grounding, *model.Tuple, bool) {
	na := 3 + rng.Intn(2)
	attrs := make([]string, na)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	s := model.MustSchema("r", attrs...)
	ie := model.NewEntityInstance(s)
	n := 2 + rng.Intn(5)
	for i := 0; i < n; i++ {
		vals := make([]model.Value, na)
		for a := range vals {
			if rng.Intn(4) == 0 {
				vals[a] = model.NullValue()
			} else {
				vals[a] = model.I(int64(rng.Intn(3)))
			}
		}
		ie.MustAdd(model.MustTuple(s, vals...))
	}
	var rules []rule.Rule
	// A correlation rule between two random attributes keeps check
	// non-trivial.
	if rng.Intn(2) == 0 {
		rules = append(rules, &rule.Form1{
			RuleName: "corr",
			LHS:      []rule.Pred{rule.Prec(attrs[rng.Intn(na)])},
			RHS:      attrs[rng.Intn(na)],
		})
	}
	rs, err := rule.NewSet(s, nil, rules...)
	if err != nil {
		panic(err)
	}
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Rules: rs}, chase.Options{})
	if err != nil {
		panic(err)
	}
	res := g.Run(nil)
	if !res.CR || res.Complete() {
		return nil, nil, false
	}
	return g, res.Target, true
}

// bruteForce enumerates the whole assignment space, checks every tuple
// and returns all candidates sorted by (score desc, key asc) — the
// ground truth for the exact algorithms.
func bruteForce(g *chase.Grounding, te *model.Tuple, pref topk.Preference) []topk.Candidate {
	weight := pref.Weight
	if weight == nil {
		weight = topk.OccurrenceWeight(g.Instance())
	}
	schema := g.Schema()
	var zAttrs []int
	var lists [][]model.Value
	for a := 0; a < schema.Arity(); a++ {
		if !te.At(a).IsNull() {
			continue
		}
		vals, _ := model.ActiveDomain(g.Instance(), g.Master(), schema.Attr(a))
		vals = append(vals, model.Bottom)
		zAttrs = append(zAttrs, a)
		lists = append(lists, vals)
	}
	var out []topk.Candidate
	var rec func(i int, t *model.Tuple)
	rec = func(i int, t *model.Tuple) {
		if i == len(zAttrs) {
			if g.Run(t).CR {
				score := 0.0
				for a := 0; a < schema.Arity(); a++ {
					score += weight(schema.Attr(a), t.At(a))
				}
				out = append(out, topk.Candidate{Tuple: t.Clone(), Score: score})
			}
			return
		}
		for _, v := range lists[i] {
			t.SetAt(zAttrs[i], v)
			rec(i+1, t)
		}
		t.SetAt(zAttrs[i], model.NullValue())
	}
	rec(0, te.Clone())
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Tuple.Key() < out[j].Tuple.Key()
	})
	return out
}

// TestExactAlgorithmsMatchBruteForce: TopKCT and RankJoinCT must return
// exactly the k best candidates (by score; tie sets may be permuted).
func TestExactAlgorithmsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, te, ok := randProblem(rng)
		if !ok {
			return true
		}
		k := 1 + rng.Intn(4)
		pref := topk.Preference{K: k}
		truth := bruteForce(g, te, pref)
		want := len(truth)
		if want > k {
			want = k
		}

		for name, run := range map[string]func() ([]topk.Candidate, topk.Stats, error){
			"TopKCT":     func() ([]topk.Candidate, topk.Stats, error) { return topk.TopKCT(g, te, pref) },
			"RankJoinCT": func() ([]topk.Candidate, topk.Stats, error) { return topk.RankJoinCT(g, te, pref) },
		} {
			got, _, err := run()
			if err != nil {
				t.Logf("seed %d %s: %v", seed, name, err)
				return false
			}
			if len(got) != want {
				t.Logf("seed %d %s: got %d candidates, want %d", seed, name, len(got), want)
				return false
			}
			for i, c := range got {
				if c.Score != truth[i].Score {
					t.Logf("seed %d %s: score[%d] = %v, want %v", seed, name, i, c.Score, truth[i].Score)
					return false
				}
				if !g.Run(c.Tuple).CR {
					t.Logf("seed %d %s: result %d fails check", seed, name, i)
					return false
				}
			}
			// Scores must be non-increasing and tuples distinct.
			keys := map[string]bool{}
			for i, c := range got {
				if i > 0 && c.Score > got[i-1].Score {
					t.Logf("seed %d %s: scores not sorted", seed, name)
					return false
				}
				if keys[c.Tuple.Key()] {
					t.Logf("seed %d %s: duplicate candidate", seed, name)
					return false
				}
				keys[c.Tuple.Key()] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestHeuristicSoundness: every TopKCTh result is a genuine candidate
// target (candidacy is guaranteed; optimality is not).
func TestHeuristicSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, te, ok := randProblem(rng)
		if !ok {
			return true
		}
		k := 1 + rng.Intn(4)
		got, _, err := topk.TopKCTh(g, te, topk.Preference{K: k})
		if err != nil {
			return false
		}
		if len(got) > k {
			return false
		}
		keys := map[string]bool{}
		for _, c := range got {
			if !g.Run(c.Tuple).CR || !c.Tuple.Complete() {
				return false
			}
			if keys[c.Tuple.Key()] {
				return false
			}
			keys[c.Tuple.Key()] = true
			for a := 0; a < te.Schema().Arity(); a++ {
				if v := te.At(a); !v.IsNull() && !c.Tuple.At(a).Equal(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestCompleteTargetShortCircuit: with a complete te, all algorithms
// return te itself.
func TestCompleteTargetShortCircuit(t *testing.T) {
	ie := paperdata.Stat()
	im := paperdata.NBA()
	rs, _ := rule.NewSet(ie.Schema(), im.Schema(), paperdata.Rules()...)
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Im: im, Rules: rs}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	te := g.Run(nil).Target
	if !te.Complete() {
		t.Fatalf("expected complete target")
	}
	for name, run := range map[string]func() ([]topk.Candidate, topk.Stats, error){
		"TopKCT":     func() ([]topk.Candidate, topk.Stats, error) { return topk.TopKCT(g, te, topk.Preference{K: 3}) },
		"RankJoinCT": func() ([]topk.Candidate, topk.Stats, error) { return topk.RankJoinCT(g, te, topk.Preference{K: 3}) },
		"TopKCTh":    func() ([]topk.Candidate, topk.Stats, error) { return topk.TopKCTh(g, te, topk.Preference{K: 3}) },
	} {
		cands, _, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(cands) != 1 || !cands[0].Tuple.EqualTo(te) {
			t.Errorf("%s: want exactly te, got %d candidates", name, len(cands))
		}
	}
}

// TestInvalidK: k <= 0 is rejected.
func TestInvalidK(t *testing.T) {
	g, te := example9Grounding(t)
	if _, _, err := topk.TopKCT(g, te, topk.Preference{K: 0}); err == nil {
		t.Errorf("TopKCT should reject k=0")
	}
	if _, _, err := topk.RankJoinCT(g, te, topk.Preference{K: -1}); err == nil {
		t.Errorf("RankJoinCT should reject k<0")
	}
}

// TestCustomDomains: Preference.Domains restricts candidate values.
func TestCustomDomains(t *testing.T) {
	s := model.MustSchema("r", "id", "closed")
	ie := model.NewEntityInstance(s)
	ie.MustAdd(model.MustTuple(s, model.S("x"), model.B(true)))
	ie.MustAdd(model.MustTuple(s, model.S("x"), model.B(false)))
	rs, _ := rule.NewSet(s, nil)
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Rules: rs}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	te := g.Run(nil).Target
	pref := topk.Preference{
		K:       5,
		Domains: map[string][]model.Value{"closed": {model.B(true), model.B(false)}},
	}
	cands, _, err := topk.TopKCT(g, te, pref)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("want exactly the 2 boolean candidates, got %d", len(cands))
	}
	for _, c := range cands {
		v, _ := c.Tuple.Get("closed")
		if v.Kind() != model.Bool {
			t.Errorf("candidate closed = %v, want boolean", v)
		}
	}
}

// TestMonotoneScores: the enumeration respects the preference — the
// first verified candidate has the maximum score among all candidates.
func TestMonotoneScores(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, te, ok := randProblem(rng)
		if !ok {
			return true
		}
		pref := topk.Preference{K: 1}
		got, _, err := topk.TopKCT(g, te, pref)
		if err != nil {
			return false
		}
		truth := bruteForce(g, te, pref)
		if len(truth) == 0 {
			return len(got) == 0
		}
		return len(got) == 1 && got[0].Score == truth[0].Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
