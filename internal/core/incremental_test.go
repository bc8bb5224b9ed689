package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/paperdata"
	"repro/internal/rule"
)

// fingerprintSession renders everything the incremental path promises
// to preserve — CR verdict, deduced target, residual step count, top-k
// candidate list (tuples, scores, order) and search stats — so string
// equality means byte-identical output.
func fingerprintSession(t *testing.T, s *core.Session, topK int, algo core.Algorithm) string {
	t.Helper()
	res := s.Deduce()
	out := fmt.Sprintf("cr=%v", res.CR)
	if !res.CR {
		return out
	}
	out += fmt.Sprintf(" target=%s steps=%d pairs=%d", res.Target.Key(), res.Steps, res.Orders.TotalPairs())
	if res.Target.Complete() || topK <= 0 {
		return out
	}
	cands, stats, err := s.TopK(core.Preference{K: topK, MaxChecks: 2000}, algo)
	if err != nil {
		return out + " topkerr=" + err.Error()
	}
	for _, c := range cands {
		out += fmt.Sprintf(" cand=%s@%.6f", c.Tuple.Key(), c.Score)
	}
	out += fmt.Sprintf(" checks=%d pops=%d gen=%d", stats.Checks, stats.Pops, stats.Generated)
	return out
}

// buildSplitSession replays ie as a base prefix plus AddTuples batches.
func buildSplitSession(t *testing.T, ie *model.EntityInstance, im *model.MasterRelation,
	rs *rule.Set, base int, batches []int) *core.Session {
	t.Helper()
	prefix := model.NewEntityInstance(ie.Schema())
	for i := 0; i < base; i++ {
		prefix.MustAdd(ie.Tuple(i))
	}
	s, err := core.NewSession(prefix, im, rs)
	if err != nil {
		t.Fatal(err)
	}
	next := base
	for _, sz := range batches {
		if err := s.AddTuples(ie.Tuples()[next : next+sz]...); err != nil {
			t.Fatal(err)
		}
		next += sz
	}
	if next != ie.Size() {
		t.Fatalf("split covers %d of %d tuples", next, ie.Size())
	}
	return s
}

// TestAddTuplesMatchesFreshSession is the session-level incremental
// equivalence property (ISSUE 3): for every tested split of an instance
// into a base plus AddTuples batches, Deduce, the top-k candidate list
// and the search Stats are byte-identical to a fresh session over the
// full instance. Runs under -race in CI.
func TestAddTuplesMatchesFreshSession(t *testing.T) {
	// The paper's running example: every split of the four stat tuples.
	ie := paperdata.Stat()
	im := paperdata.NBA()
	// Drop phi6b so the deduced target stays incomplete and TopK has
	// work to do.
	var pruned []rule.Rule
	for _, r := range paperdata.Rules() {
		if r.Name() != "phi6b" {
			pruned = append(pruned, r)
		}
	}
	rs, err := rule.NewSet(ie.Schema(), im.Schema(), pruned...)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewSession(ie, im, rs)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []core.Algorithm{core.AlgoTopKCT, core.AlgoRankJoinCT, core.AlgoTopKCTh} {
		want := fingerprintSession(t, fresh, 3, algo)
		for base := 1; base < ie.Size(); base++ {
			for _, oneByOne := range []bool{false, true} {
				var batches []int
				if oneByOne {
					for i := base; i < ie.Size(); i++ {
						batches = append(batches, 1)
					}
				} else {
					batches = []int{ie.Size() - base}
				}
				s := buildSplitSession(t, ie, im, rs, base, batches)
				if got := fingerprintSession(t, s, 3, algo); got != want {
					t.Fatalf("algo %d base %d oneByOne=%v:\nincremental: %s\nfresh:       %s",
						algo, base, oneByOne, got, want)
				}
				if s.Version() != len(batches) {
					t.Fatalf("version %d after %d batches", s.Version(), len(batches))
				}
			}
		}
	}

	// Generated Med-style entities: random splits, fixed seeds.
	cfg := gen.MedConfig()
	cfg.NumEntities = 8
	ds := gen.Generate(cfg)
	rng := rand.New(rand.NewSource(7))
	for ei, e := range ds.Entities {
		ge := e.Instance
		if ge.Size() < 2 {
			continue
		}
		gf, err := core.NewSession(ge, ds.Master, ds.Rules)
		if err != nil {
			t.Fatal(err)
		}
		want := fingerprintSession(t, gf, 3, core.AlgoTopKCT)
		for trial := 0; trial < 3; trial++ {
			base := 1 + rng.Intn(ge.Size()-1)
			rest := ge.Size() - base
			var batches []int
			for rest > 0 {
				sz := 1 + rng.Intn(rest)
				batches = append(batches, sz)
				rest -= sz
			}
			s := buildSplitSession(t, ge, ds.Master, ds.Rules, base, batches)
			if got := fingerprintSession(t, s, 3, core.AlgoTopKCT); got != want {
				t.Fatalf("entity %d base %d batches %v:\nincremental: %s\nfresh:       %s",
					ei, base, batches, got, want)
			}
		}
	}
}

// TestAddTuplesCheckAgrees: candidate checks after AddTuples agree with
// a fresh session's verdicts, including on candidates that the new
// evidence invalidates.
func TestAddTuplesCheckAgrees(t *testing.T) {
	ie := paperdata.Stat()
	im := paperdata.NBA()
	rs, err := rule.NewSet(ie.Schema(), im.Schema(), paperdata.Rules()...)
	if err != nil {
		t.Fatal(err)
	}
	s := buildSplitSession(t, ie, im, rs, 2, []int{1, 1})
	if !s.Check(paperdata.Target()) {
		t.Fatal("true target must pass after incremental absorption")
	}
	bad := paperdata.Target()
	bad.Set(paperdata.League, model.S("SL"))
	if s.Check(bad) {
		t.Fatal("bad target must fail after incremental absorption")
	}
}

// TestAddTuplesErrorKeepsSession: a failing delta leaves the session on
// its previous version.
func TestAddTuplesErrorKeepsSession(t *testing.T) {
	s := session(t)
	before := fingerprintSession(t, s, 0, core.AlgoTopKCT)
	other := model.MustSchema("other", "x")
	if err := s.AddTuples(model.MustTuple(other, model.I(1))); err == nil {
		t.Fatal("foreign-schema tuple was accepted")
	}
	if s.Version() != 0 {
		t.Fatalf("failed AddTuples advanced the version to %d", s.Version())
	}
	if after := fingerprintSession(t, s, 0, core.AlgoTopKCT); after != before {
		t.Fatalf("failed AddTuples changed deduction:\n%s\n%s", before, after)
	}
}

// TestGroundworkSessions: sessions stamped from one Groundwork behave
// exactly like independently constructed sessions.
func TestGroundworkSessions(t *testing.T) {
	ie := paperdata.Stat()
	im := paperdata.NBA()
	rs, err := rule.NewSet(ie.Schema(), im.Schema(), paperdata.Rules()...)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := core.NewGroundwork(ie.Schema(), im, rs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s, err := gw.NewSession(ie)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Deduce()
		if !res.CR || !res.Target.EqualTo(paperdata.Target()) {
			t.Fatalf("groundwork session %d: CR=%v target=%s", i, res.CR, res.Target)
		}
	}
	// Instances of a foreign schema are rejected.
	other := model.MustSchema("other", "x")
	oie := model.NewEntityInstance(other)
	oie.MustAdd(model.MustTuple(other, model.I(1)))
	if _, err := gw.NewSession(oie); err == nil {
		t.Fatal("groundwork accepted a foreign-schema instance")
	}
}
