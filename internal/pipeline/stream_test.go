package pipeline

import (
	"errors"
	"io"
	"testing"

	"repro/internal/chase"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/topk"
)

// sliceEntitySource replays a fixed entity slice as an EntitySource,
// tracking how far ahead of delivery the pipeline has pulled.
type sliceEntitySource struct {
	ents   []*model.EntityInstance
	i      int
	errAt  int // return errSource instead of entity errAt (-1: never)
	pulled func(n int)
}

var errSource = errors.New("source failed")

// testShared builds the schema-level groundwork StreamFrom runs on.
func testShared(t *testing.T, ds *gen.Dataset) *chase.Shared {
	t.Helper()
	shared, err := chase.NewShared(ds.Entities[0].Instance.Schema(), ds.Master, ds.Rules)
	if err != nil {
		t.Fatal(err)
	}
	return shared
}

func (s *sliceEntitySource) Next() (*model.EntityInstance, error) {
	if s.i == s.errAt {
		return nil, errSource
	}
	if s.i >= len(s.ents) {
		return nil, io.EOF
	}
	e := s.ents[s.i]
	s.i++
	if s.pulled != nil {
		s.pulled(s.i)
	}
	return e, nil
}

// TestRunStreamMatchesRun is the streaming half of the pipeline
// equivalence guarantee: StreamFrom over a source yields byte-identical
// per-entity results and the same Summary as the materialized Run, for
// any worker count (run under -race in CI).
func TestRunStreamMatchesRun(t *testing.T) {
	ds := testDataset(t, 30)
	ents := instances(ds)
	base := Config{Master: ds.Master, Rules: ds.Rules, TopK: 5,
		Pref: topk.Preference{MaxChecks: 2000}}
	wantResults, wantSum, err := Run(ents, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3, 8} {
		cfg := base
		cfg.Workers = w
		var got []Result
		sum, err := StreamFrom(testShared(t, ds), &sliceEntitySource{ents: ents, errAt: -1}, cfg,
			func(r Result) error {
				got = append(got, r)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wantResults) {
			t.Fatalf("workers=%d: %d results, want %d", w, len(got), len(wantResults))
		}
		for i := range got {
			if got[i].Index != i {
				t.Fatalf("workers=%d: result %d has Index %d", w, i, got[i].Index)
			}
			if fingerprint(got[i]) != fingerprint(wantResults[i]) {
				t.Errorf("workers=%d entity %d:\nstream %s\nbatch  %s",
					w, i, fingerprint(got[i]), fingerprint(wantResults[i]))
			}
		}
		sum.Elapsed, wantSum.Elapsed = 0, 0
		if sum != wantSum {
			t.Errorf("workers=%d summary %+v, want %+v", w, sum, wantSum)
		}
	}
}

// TestStreamFromBackpressure pins the bounded-window invariant: the
// source is never pulled more than 2*workers+1 entities ahead of the
// sink, no matter how large the relation is.
func TestStreamFromBackpressure(t *testing.T) {
	ds := testDataset(t, 60)
	ents := instances(ds)
	const workers = 2
	delivered := 0
	maxAhead := 0
	src := &sliceEntitySource{ents: ents, errAt: -1}
	src.pulled = func(n int) {
		if ahead := n - delivered; ahead > maxAhead {
			maxAhead = ahead
		}
	}
	cfg := Config{Master: ds.Master, Rules: ds.Rules, Workers: workers}
	_, err := StreamFrom(testShared(t, ds), src, cfg, func(r Result) error {
		delivered++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != len(ents) {
		t.Fatalf("delivered %d of %d", delivered, len(ents))
	}
	if limit := 2*workers + 1; maxAhead > limit {
		t.Fatalf("source ran %d entities ahead of the sink, window allows %d", maxAhead, limit)
	}
}

func TestStreamFromSinkErrorStopsEarly(t *testing.T) {
	ds := testDataset(t, 20)
	ents := instances(ds)
	stop := errors.New("stop")
	n := 0
	_, err := StreamFrom(testShared(t, ds), &sliceEntitySource{ents: ents, errAt: -1},
		Config{Master: ds.Master, Rules: ds.Rules, Workers: 4},
		func(r Result) error {
			if r.Index != n {
				t.Fatalf("out of order: got %d want %d", r.Index, n)
			}
			n++
			if n == 5 {
				return stop
			}
			return nil
		})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v", err)
	}
	if n != 5 {
		t.Fatalf("sink ran %d times, want 5", n)
	}
}

func TestStreamFromSourceError(t *testing.T) {
	ds := testDataset(t, 20)
	ents := instances(ds)
	n := 0
	_, err := StreamFrom(testShared(t, ds), &sliceEntitySource{ents: ents, errAt: 10},
		Config{Master: ds.Master, Rules: ds.Rules, Workers: 4},
		func(r Result) error {
			if r.Index != n {
				t.Fatalf("out of order: got %d want %d", r.Index, n)
			}
			n++
			return nil
		})
	if !errors.Is(err, errSource) {
		t.Fatalf("err = %v", err)
	}
	if n > 10 {
		t.Fatalf("delivered %d results past the source error", n)
	}
}

func TestStreamFromSchemaMismatch(t *testing.T) {
	ds := testDataset(t, 3)
	other := testDataset(t, 1)
	ents := instances(ds)
	ents = append(ents, other.Entities[0].Instance)
	_, err := StreamFrom(testShared(t, ds), &sliceEntitySource{ents: ents, errAt: -1},
		Config{Master: ds.Master, Rules: ds.Rules},
		func(Result) error { return nil })
	if err == nil {
		t.Fatal("schema mismatch should fail")
	}
}

func TestStreamFromEmptySource(t *testing.T) {
	sum, err := StreamFrom(testShared(t, testDataset(t, 1)), &sliceEntitySource{errAt: -1}, Config{},
		func(Result) error { t.Fatal("sink on empty source"); return nil })
	if err != nil || sum.Entities != 0 {
		t.Fatalf("empty source: %v %+v", err, sum)
	}
}
