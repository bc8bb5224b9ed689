package topk_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/paperdata"
	"repro/internal/rule"
	"repro/internal/topk"
)

// The verdict cache's whole contract is invisibility: a cached check
// answers exactly like running the chase (PR 7, DESIGN.md invariant
// 8). These tests pin it the same way the PR 1/3 equivalence suites
// pinned parallelism and incrementality — byte-identical fingerprints
// of everything the search returns, across algorithms, base+Extend
// splits, cold and warm caches.
// CI runs them under -race -shuffle=on.

// fingerprintSearch renders one top-k search completely: CR verdict,
// deduced target, candidate tuples with scores in rank order, and the
// search Stats. String equality means byte-identical output.
func fingerprintSearch(t *testing.T, g *chase.Grounding, pref topk.Preference, algo string) string {
	t.Helper()
	res := g.Run(nil)
	out := fmt.Sprintf("cr=%v", res.CR)
	if !res.CR {
		return out
	}
	out += " target=" + res.Target.Key()
	var cands []topk.Candidate
	var stats topk.Stats
	var err error
	switch algo {
	case "rankjoin":
		cands, stats, err = topk.RankJoinCT(g, res.Target, pref)
	case "topkcth":
		cands, stats, err = topk.TopKCTh(g, res.Target, pref)
	default:
		cands, stats, err = topk.TopKCT(g, res.Target, pref)
	}
	if err != nil {
		return out + " err=" + err.Error()
	}
	for _, c := range cands {
		out += fmt.Sprintf(" cand=%s@%.6f", c.Tuple.Key(), c.Score)
	}
	out += fmt.Sprintf(" checks=%d pops=%d gen=%d", stats.Checks, stats.Pops, stats.Generated)
	return out
}

// splitGrounding grounds the first base tuples of ie fresh and absorbs
// the rest through Extend batches, returning the final version.
func splitGrounding(t *testing.T, ie *model.EntityInstance, im *model.MasterRelation,
	rs *rule.Set, base int, batches []int, opts chase.Options) *chase.Grounding {
	t.Helper()
	prefix := model.NewEntityInstance(ie.Schema())
	for i := 0; i < base; i++ {
		prefix.MustAdd(ie.Tuple(i))
	}
	g, err := chase.NewGrounding(chase.Spec{Ie: prefix, Im: im, Rules: rs}, opts)
	if err != nil {
		t.Fatal(err)
	}
	next := base
	for _, sz := range batches {
		if g, err = g.Extend(ie.Tuples()[next : next+sz]...); err != nil {
			t.Fatal(err)
		}
		next += sz
	}
	if next != ie.Size() {
		t.Fatalf("split covers %d of %d tuples", next, ie.Size())
	}
	return g
}

var cacheEquivAlgos = []string{"topkct", "rankjoin", "topkcth"}

// TestCacheEquivalenceProperty is the cached ≡ uncached property: for
// the paper's Example 9 setting and generated Med entities, under any
// tested base+Extend split, every algorithm produces byte-identical
// candidates, order and Stats whether the verdict cache is on
// (default) or disabled, and a WARM repeat on the cached grounding
// (same searches again, now answered from the cache) is
// byte-identical to its own cold run.
func TestCacheEquivalenceProperty(t *testing.T) {
	ie := paperdata.Stat()
	im := paperdata.NBA()
	var pruned []rule.Rule
	for _, r := range paperdata.Rules() {
		if r.Name() != "phi6b" { // keep the target incomplete
			pruned = append(pruned, r)
		}
	}
	rs, err := rule.NewSet(ie.Schema(), im.Schema(), pruned...)
	if err != nil {
		t.Fatal(err)
	}
	prefs := []topk.Preference{
		{K: 3, MaxChecks: 2000},
	}
	for base := 1; base <= ie.Size(); base++ {
		var batches []int
		for i := base; i < ie.Size(); i++ {
			batches = append(batches, 1)
		}
		cached := splitGrounding(t, ie, im, rs, base, batches, chase.Options{})
		plain := splitGrounding(t, ie, im, rs, base, batches, chase.Options{DisableVerdictCache: true})
		for _, algo := range cacheEquivAlgos {
			for pi, pref := range prefs {
				want := fingerprintSearch(t, plain, pref, algo)
				cold := fingerprintSearch(t, cached, pref, algo)
				if cold != want {
					t.Fatalf("base %d algo %s pref %d cold:\ncached:   %s\nuncached: %s",
						base, algo, pi, cold, want)
				}
				warm := fingerprintSearch(t, cached, pref, algo)
				if warm != want {
					t.Fatalf("base %d algo %s pref %d warm:\ncached:   %s\nuncached: %s",
						base, algo, pi, warm, want)
				}
			}
		}
		if st := cached.VerdictCacheStats(); st.Hits == 0 {
			t.Fatalf("base %d: repeated searches recorded no cache hit (%+v)", base, st)
		}
		if st := plain.VerdictCacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
			t.Fatalf("disabled cache recorded activity: %+v", st)
		}
	}

	// Generated Med entities, random splits with fixed seeds.
	cfg := gen.MedConfig()
	cfg.NumEntities = 6
	ds := gen.Generate(cfg)
	rng := rand.New(rand.NewSource(41))
	pref := topk.Preference{K: 5, MaxChecks: 4000}
	for ei, e := range ds.Entities {
		ge := e.Instance
		if ge.Size() < 2 {
			continue
		}
		base := 1 + rng.Intn(ge.Size()-1)
		rest := ge.Size() - base
		var batches []int
		for rest > 0 {
			sz := 1 + rng.Intn(rest)
			batches = append(batches, sz)
			rest -= sz
		}
		cached := splitGrounding(t, ge, ds.Master, ds.Rules, base, batches, chase.Options{})
		plain := splitGrounding(t, ge, ds.Master, ds.Rules, base, batches,
			chase.Options{DisableVerdictCache: true})
		for _, algo := range cacheEquivAlgos {
			want := fingerprintSearch(t, plain, pref, algo)
			if cold := fingerprintSearch(t, cached, pref, algo); cold != want {
				t.Fatalf("entity %d algo %s base %d batches %v cold:\ncached:   %s\nuncached: %s",
					ei, algo, base, batches, cold, want)
			}
			if warm := fingerprintSearch(t, cached, pref, algo); warm != want {
				t.Fatalf("entity %d algo %s warm:\ncached:   %s\nuncached: %s",
					ei, algo, warm, want)
			}
		}
	}
}
