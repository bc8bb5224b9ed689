package chase_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chase"
	"repro/internal/gen"
	"repro/internal/model"
)

// synSpec grounds the first entity of a small synthetic dataset.
func synSpec(t testing.TB, tuples, im, rules int) *chase.Grounding {
	t.Helper()
	cfg := gen.SynDefault()
	cfg.Tuples = tuples
	cfg.Im = im
	cfg.Rules = rules
	ds := gen.GenerateSyn(cfg)
	g, err := chase.NewGrounding(chase.Spec{
		Ie: ds.Entities[0].Instance, Im: ds.Master, Rules: ds.Rules}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// synCandidates builds a deterministic mix of passing and failing
// candidate templates: every null attribute of the deduced target is
// instantiated from its active domain in rotation.
func synCandidates(t testing.TB, g *chase.Grounding, count int) []*model.Tuple {
	t.Helper()
	res := g.Run(nil)
	if !res.CR {
		t.Fatalf("synthetic grounding not Church-Rosser: %s", res.Conflict)
	}
	nulls := res.Target.NullAttrs()
	if len(nulls) == 0 {
		t.Fatal("synthetic target is complete; no candidates to build")
	}
	domains := make([][]model.Value, len(nulls))
	for i, a := range nulls {
		vals, _ := model.ActiveDomain(g.Instance(), g.Master(), g.Schema().Attr(a))
		domains[i] = append(vals, model.S("⊥"))
	}
	cands := make([]*model.Tuple, count)
	for c := 0; c < count; c++ {
		tpl := res.Target.Clone()
		for i, a := range nulls {
			dom := domains[i]
			tpl.SetAt(a, dom[(c+i)%len(dom)])
		}
		cands[c] = tpl
	}
	return cands
}

// TestCheckerMatchesRun verifies a single reused checker agrees with a
// fresh Run on every candidate, in both verdict and conflict string.
func TestCheckerMatchesRun(t *testing.T) {
	g := synSpec(t, 60, 30, 40)
	cands := synCandidates(t, g, 80)
	c := g.NewChecker()
	for i, cand := range cands {
		want := g.Run(cand)
		gotConflict := c.CheckConflict(cand)
		if (gotConflict == "") != want.CR {
			t.Fatalf("candidate %d: Checker CR = %v, Run CR = %v", i, gotConflict == "", want.CR)
		}
		if gotConflict != want.Conflict {
			t.Fatalf("candidate %d: conflict %q, want %q", i, gotConflict, want.Conflict)
		}
	}
}

// TestGroundingConcurrentUse hammers one grounding from many goroutines
// mixing Run, Grounding.Check and each goroutine's own Checker; run
// under -race it enforces that Grounding is read-only after
// construction.
func TestGroundingConcurrentUse(t *testing.T) {
	g := synSpec(t, 40, 20, 25)
	cands := synCandidates(t, g, 32)
	want := make([]bool, len(cands))
	for i, cand := range cands {
		want[i] = g.Run(cand).CR
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := g.NewChecker()
			for i := 0; i < 20; i++ {
				ci := (w*7 + i) % len(cands)
				switch i % 3 {
				case 0:
					if got := g.Run(cands[ci]).CR; got != want[ci] {
						errs <- fmt.Sprintf("Run(%d) = %v, want %v", ci, got, want[ci])
					}
				case 1:
					if got := g.Check(cands[ci]); got != want[ci] {
						errs <- fmt.Sprintf("g.Check(%d) = %v, want %v", ci, got, want[ci])
					}
				case 2:
					if got := own.Check(cands[ci]); got != want[ci] {
						errs <- fmt.Sprintf("own.Check(%d) = %v, want %v", ci, got, want[ci])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPooledEngineNoStateLeak is the pooling property test: a reused
// checker must give the same verdicts as fresh engines on randomized
// specifications and templates, in every interleaving order. A state
// leak (orders, counts, dead steps, te, form-2 entries surviving a
// reset) would flip some verdict.
func TestPooledEngineNoStateLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 150; iter++ {
		spec, _ := randSpec(rng)
		g, err := chase.NewGrounding(spec, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// A batch of random templates, some nil.
		tpls := make([]*model.Tuple, 12)
		for i := range tpls {
			if rng.Intn(4) == 0 {
				continue
			}
			tpl := model.NewTuple(spec.Ie.Schema())
			for a := 0; a < spec.Ie.Schema().Arity(); a++ {
				if rng.Intn(2) == 0 {
					tpl.SetAt(a, model.I(int64(rng.Intn(4))))
				}
			}
			tpls[i] = tpl
		}
		want := make([]*chase.Result, len(tpls))
		for i, tpl := range tpls {
			want[i] = g.Run(tpl)
		}
		c := g.NewChecker()
		// Two passes over the batch through one checker: the second pass
		// catches state leaking across the whole first pass.
		for pass := 0; pass < 2; pass++ {
			for i, tpl := range tpls {
				conflict := c.CheckConflict(tpl)
				if (conflict == "") != want[i].CR || conflict != want[i].Conflict {
					t.Fatalf("iter %d pass %d template %d: pooled (CR=%v, %q), fresh (CR=%v, %q)",
						iter, pass, i, conflict == "", conflict, want[i].CR, want[i].Conflict)
				}
			}
		}
	}
}
