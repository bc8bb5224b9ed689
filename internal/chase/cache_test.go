package chase_test

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/model"
	"repro/internal/paperdata"
	"repro/internal/rule"
	"repro/internal/topk"
)

// opposedRulesGrounding builds the TestExtendIntroducesConflict
// setting: a one-tuple instance that is Church-Rosser until a second
// tuple arrives and the two opposed rules conflict — the smallest
// scenario where a verdict FLIPS between grounding versions.
func opposedRulesGrounding(t *testing.T) *chase.Grounding {
	t.Helper()
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
	return g
}

// TestOldVersionCheckerAnswersFromItsCache is the version-pinning
// regression of ISSUE 7: after Extend flips a TEMPLATE-dependent
// verdict, pooled Checkers on the OLD version must keep answering the
// OLD verdict — and from the old version's own cache (a hit, not a
// recomputation), while the new version's cache holds the new verdict
// under the very same packed key.
func TestOldVersionCheckerAnswersFromItsCache(t *testing.T) {
	// One rule: te[a] = 1 forces every pair mutually ⪯b. On one tuple
	// that is the harmless reflexive pair; a second tuple with a
	// different b value makes the same template conflict.
	s := model.MustSchema("r", "a", "b")
	rules := rule.MustSet(s, nil,
		&rule.Form1{RuleName: "clamp",
			LHS: []rule.Pred{rule.Cmp(rule.Te("a"), rule.Eq, rule.C(model.I(1)))}, RHS: "b"},
	)
	ie := model.NewEntityInstance(s)
	ie.MustAdd(model.MustTuple(s, model.I(1), model.I(10)))
	old, err := chase.NewGrounding(chase.Spec{Ie: ie, Rules: rules}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tpl := model.MustTuple(s, model.I(1), model.NullValue())
	if !old.Check(tpl) { // miss: populates the old version's cache
		t.Fatal("one-tuple instance must be Church-Rosser under the template")
	}
	ext, err := old.Extend(model.MustTuple(s, model.I(1), model.I(20)))
	if err != nil {
		t.Fatal(err)
	}
	if ext.Check(tpl) { // miss in the successor's EMPTY cache
		t.Fatal("extended instance must conflict under the template")
	}
	// Hits/misses are cumulative along the version chain; entries are
	// per version — the successor holds exactly its own flipped verdict.
	if st := ext.VerdictCacheStats(); st.Entries != 1 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("after one check per version: successor stats %+v, want 2 misses, 0 hits, 1 entry", st)
	}
	// The old version still answers CR for the old evidence — and the
	// answer comes out of its cache: hits +1, misses unchanged.
	before := old.VerdictCacheStats()
	if !old.Check(tpl) {
		t.Fatal("old version flipped its verdict after Extend")
	}
	after := old.VerdictCacheStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("old-version re-check was not a cache hit: before %+v after %+v", before, after)
	}
	if old.VerdictCacheStats().Entries != 1 {
		t.Fatalf("old version holds %d entries, want its own 1", old.VerdictCacheStats().Entries)
	}
	// And the successor's cached answer stays the flipped one.
	if ext.Check(tpl) {
		t.Fatal("successor served the old verdict")
	}
}

// TestUncacheableTemplateStaysOut: a template carrying a value the
// shared dictionary has never interned resolves to the NoID sentinel,
// under which two distinct unknowns would alias — so such rows are
// never cached (and never counted): the check runs, answers correctly,
// and the cache is bypassed entirely.
func TestUncacheableTemplateStaysOut(t *testing.T) {
	g := opposedRulesGrounding(t)
	tpl := model.MustTuple(g.Schema(), model.S("never-interned-xyz"))
	want := g.Run(tpl).CR
	for round := 0; round < 2; round++ {
		if got := g.Check(tpl); got != want {
			t.Fatalf("round %d: pooled check %v, Run %v", round, got, want)
		}
	}
	if st := g.VerdictCacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("uncacheable template touched the cache: %+v", st)
	}
}

// TestDisabledCacheChecks: DisableVerdictCache really disables — the
// verdicts stay identical and the stats stay zero.
func TestDisabledCacheChecks(t *testing.T) {
	s := model.MustSchema("r", "a")
	rules := rule.MustSet(s, nil,
		&rule.Form1{RuleName: "up",
			LHS: []rule.Pred{rule.Cmp(rule.T1("a"), rule.Lt, rule.T2("a"))}, RHS: "a"},
	)
	ie := model.NewEntityInstance(s)
	ie.MustAdd(model.MustTuple(s, model.I(1)))
	ie.MustAdd(model.MustTuple(s, model.I(2)))
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Rules: rules},
		chase.Options{DisableVerdictCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if g.Check(nil) != g.Run(nil).CR {
			t.Fatal("disabled-cache check disagrees with Run")
		}
	}
	if st := g.VerdictCacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", st)
	}
	// The disabled state survives Extend.
	ext, err := g.Extend(model.MustTuple(s, model.I(3)))
	if err != nil {
		t.Fatal(err)
	}
	ext.Check(nil)
	if st := ext.VerdictCacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache re-enabled itself across Extend: %+v", st)
	}
}

// TestCacheCapEquivalence: a verdict map with no room left still
// answers byte-identically — a full map refuses inserts, it never
// serves anything but the verdict the chase would compute. The map is
// filled with keys no template packs to until two slots are left, so
// the search below fills it and then runs against a full map.
func TestCacheCapEquivalence(t *testing.T) {
	ie := paperdata.Stat()
	im := paperdata.NBA()
	var pruned []rule.Rule
	for _, r := range paperdata.Rules() {
		if r.Name() != "phi6b" { // Example 9: keep the target incomplete
			pruned = append(pruned, r)
		}
	}
	rs, err := rule.NewSet(ie.Schema(), im.Schema(), pruned...)
	if err != nil {
		t.Fatal(err)
	}
	spec := chase.Spec{Ie: ie, Im: im, Rules: rs}
	g, err := chase.NewGrounding(spec, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := chase.NewGrounding(spec, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chase.FillVerdictCache(full, 2)
	te := g.Run(nil).Target
	pref := topk.Preference{K: 3, MaxChecks: 2000}
	want, wantStats, err := topk.TopKCT(g, te, pref)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, gotStats, err := topk.TopKCT(full, te, pref)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || gotStats != wantStats {
			t.Fatalf("round %d: full-cache search diverged: %d cands %+v vs %d cands %+v",
				round, len(got), gotStats, len(want), wantStats)
		}
		for i := range got {
			if got[i].Tuple.Key() != want[i].Tuple.Key() || got[i].Score != want[i].Score {
				t.Fatalf("round %d cand %d: %s@%v vs %s@%v", round, i,
					got[i].Tuple.Key(), got[i].Score, want[i].Tuple.Key(), want[i].Score)
			}
		}
	}
	if st := full.VerdictCacheStats(); st.Entries != chase.VerdictCap || st.Hits == 0 {
		t.Fatalf("full map: %+v, want %d entries and the second round's hits", st, chase.VerdictCap)
	}
}
