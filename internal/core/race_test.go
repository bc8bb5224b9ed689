package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/paperdata"
	"repro/internal/rule"
)

// TestSessionConcurrentUse pins the session concurrency contract under
// the race detector (CI runs internal/core with -race): the read-side
// methods — Deduce, DeduceFrom and Check — may run from any number of
// goroutines against one session, because they only read the current
// immutable grounding version and all mutable chase state lives in
// per-run or pooled engines. AddTuples runs between the concurrent
// phases (it is the one method that must not overlap the others) and
// the reads keep agreeing with the ground truth on both versions.
func TestSessionConcurrentUse(t *testing.T) {
	ie := paperdata.Stat()
	im := paperdata.NBA()
	rs, err := rule.NewSet(ie.Schema(), im.Schema(), paperdata.Rules()...)
	if err != nil {
		t.Fatal(err)
	}
	// Start from a prefix so there is a delta to absorb mid-test.
	prefix := model.NewEntityInstance(ie.Schema())
	for i := 0; i < ie.Size()-1; i++ {
		prefix.MustAdd(ie.Tuple(i))
	}
	s, err := core.NewSession(prefix, im, rs)
	if err != nil {
		t.Fatal(err)
	}

	good := paperdata.Target()
	bad := paperdata.Target()
	bad.Set(paperdata.League, model.S("SL"))

	hammer := func() {
		const goroutines = 8
		const iters = 20
		var wg sync.WaitGroup
		errs := make(chan string, goroutines*iters)
		for g := 0; g < goroutines; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					switch (g + i) % 4 {
					case 0:
						if res := s.Deduce(); !res.CR {
							errs <- "Deduce: " + res.Conflict
							return
						}
					case 1:
						if !s.Check(good) {
							errs <- "Check rejected the true target"
							return
						}
					case 2:
						if s.Check(bad) {
							errs <- "Check accepted a bad target"
							return
						}
					case 3:
						if res := s.DeduceFrom(good); !res.CR {
							errs <- "DeduceFrom rejected the true target: " + res.Conflict
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}

	hammer()
	if err := s.AddTuples(ie.Tuple(ie.Size() - 1)); err != nil {
		t.Fatal(err)
	}
	hammer()
	res := s.Deduce()
	if !res.CR || !res.Target.EqualTo(paperdata.Target()) {
		t.Fatalf("after the delta: CR=%v target=%s", res.CR, res.Target)
	}
}
