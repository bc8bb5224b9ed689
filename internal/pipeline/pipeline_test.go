package pipeline

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/topk"
)

// testDataset generates a small Med-style dataset: many entities, one
// schema, master data and a full rule set.
func testDataset(t *testing.T, entities int) *gen.Dataset {
	t.Helper()
	cfg := gen.MedConfig()
	cfg.NumEntities = entities
	return gen.Generate(cfg)
}

func instances(ds *gen.Dataset) []*model.EntityInstance {
	out := make([]*model.EntityInstance, len(ds.Entities))
	for i, e := range ds.Entities {
		out[i] = e.Instance
	}
	return out
}

// fingerprint renders everything a Result exposes for one entity, so
// equality means byte-identical per-entity output.
func fingerprint(r Result) string {
	if r.Err != nil {
		return "err:" + r.Err.Error()
	}
	s := fmt.Sprintf("cr=%v conflict=%q", r.Deduction.CR, r.Deduction.Conflict)
	if r.Deduction.CR {
		s += " target=" + r.Deduction.Target.Key()
	}
	for _, c := range r.Candidates {
		s += fmt.Sprintf(" cand=%s@%.6f", c.Tuple.Key(), c.Score)
	}
	s += fmt.Sprintf(" checks=%d pops=%d gen=%d", r.Stats.Checks, r.Stats.Pops, r.Stats.Generated)
	return s
}

// TestRunMatchesSequentialSession is the pipeline equivalence guarantee:
// with workers=N, every per-entity result is identical to a sequential
// core.Session run over the same entity (run under -race in CI).
func TestRunMatchesSequentialSession(t *testing.T) {
	ds := testDataset(t, 40)
	ents := instances(ds)
	cfg := Config{Master: ds.Master, Rules: ds.Rules, Workers: 8, TopK: 5,
		Pref: topk.Preference{MaxChecks: 2000}}
	results, sum, err := Run(ents, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Entities != len(ents) || len(results) != len(ents) {
		t.Fatalf("got %d results, summary %d entities, want %d", len(results), sum.Entities, len(ents))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
		sess, err := core.NewSession(ents[i], ds.Master, ds.Rules)
		if err != nil {
			t.Fatal(err)
		}
		want := Result{Index: i, Instance: ents[i], Deduction: sess.Deduce()}
		if want.Deduction.CR && !want.Deduction.Target.Complete() {
			cands, stats, err := sess.TopK(core.Preference{K: 5, MaxChecks: 2000}, core.AlgoTopKCT)
			if err != nil {
				t.Fatal(err)
			}
			want.Candidates, want.Stats = cands, stats
		}
		if got, exp := fingerprint(r), fingerprint(want); got != exp {
			t.Fatalf("entity %d:\npipeline:   %s\nsequential: %s", i, got, exp)
		}
	}
}

// TestRunWorkerIndependence pins the other half of the guarantee: the
// worker count never changes any per-entity output.
func TestRunWorkerIndependence(t *testing.T) {
	ds := testDataset(t, 24)
	ents := instances(ds)
	base, _, err := Run(ents, Config{Master: ds.Master, Rules: ds.Rules, Workers: 1, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16} {
		got, _, err := Run(ents, Config{Master: ds.Master, Rules: ds.Rules, Workers: w, TopK: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if fingerprint(got[i]) != fingerprint(base[i]) {
				t.Fatalf("workers=%d entity %d: %s != %s", w, i, fingerprint(got[i]), fingerprint(base[i]))
			}
		}
	}
}

// TestStreamOrderAndProgress checks that the sink sees results in input
// order even though workers finish out of order.
func TestStreamOrderAndProgress(t *testing.T) {
	ds := testDataset(t, 30)
	var seen []int
	sum, err := Stream(instances(ds), Config{Master: ds.Master, Rules: ds.Rules, Workers: 6},
		func(r Result) error {
			seen = append(seen, r.Index)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Entities != 30 {
		t.Fatalf("summary has %d entities, want 30", sum.Entities)
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("sink saw index %d at position %d", idx, i)
		}
	}
}

// TestStreamSinkError checks that a sink error stops the batch early
// and is returned.
func TestStreamSinkError(t *testing.T) {
	ds := testDataset(t, 20)
	boom := errors.New("boom")
	calls := 0
	_, err := Stream(instances(ds), Config{Master: ds.Master, Rules: ds.Rules, Workers: 4},
		func(r Result) error {
			calls++
			if r.Index == 3 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 4 {
		t.Fatalf("sink ran %d times, want 4", calls)
	}
}

// TestBadEntityDoesNotAbortBatch: one empty-schema... rather, one
// entity over a different schema is rejected up front, while a non-CR
// entity flows through as a per-entity verdict, not an error.
func TestBadEntityDoesNotAbortBatch(t *testing.T) {
	s := model.MustSchema("r", "v", "price")
	// Two clean single-tuple entities around one whose rules conflict:
	// the up/down pair orders any two distinct-v tuples both ways on
	// price, so an entity with two tuples of differing prices is not
	// Church-Rosser.
	rules, err := core.ParseRules(`
		up:   t1[v] < t2[v] -> t1 <= t2 @ price
		down: t2[v] < t1[v] -> t1 <= t2 @ price
	`, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(vals ...model.Value) *model.EntityInstance {
		ie := model.NewEntityInstance(s)
		for i := 0; i+1 < len(vals); i += 2 {
			ie.MustAdd(model.MustTuple(s, vals[i], vals[i+1]))
		}
		return ie
	}
	good1 := mk(model.I(1), model.S("9.99"))
	bad := mk(model.I(1), model.S("9.99"), model.I(2), model.S("10.99")) // both orders forced
	good2 := mk(model.I(2), model.S("10.49"))
	results, sum, err := Run([]*model.EntityInstance{good1, bad, good2},
		Config{Rules: rules, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Entities != 3 || sum.NotCR != 1 || sum.Errors != 0 {
		t.Fatalf("summary = %+v, want 3 entities, 1 not-CR, 0 errors", sum)
	}
	if results[1].Deduction.CR {
		t.Fatal("conflicting entity reported Church-Rosser")
	}
	for _, i := range []int{0, 2} {
		if !results[i].Deduction.CR || !results[i].Deduction.Target.Complete() {
			t.Fatalf("entity %d should deduce completely: %+v", i, results[i].Deduction)
		}
	}
}

// TestMixedSchemaRejected: schema mismatches are a batch-level error,
// reported before any work starts.
func TestMixedSchemaRejected(t *testing.T) {
	s1 := model.MustSchema("a", "x")
	s2 := model.MustSchema("b", "x")
	rules, _ := core.ParseRules("", s1, nil)
	e1 := model.NewEntityInstance(s1)
	e1.MustAdd(model.MustTuple(s1, model.I(1)))
	e2 := model.NewEntityInstance(s2)
	e2.MustAdd(model.MustTuple(s2, model.I(1)))
	_, _, err := Run([]*model.EntityInstance{e1, e2}, Config{Rules: rules})
	if err == nil {
		t.Fatal("mixed schemas were accepted")
	}
	// "Before any work starts": the valid first entity must not reach
	// the sink either.
	calls := 0
	_, err = Stream([]*model.EntityInstance{e1, e2}, Config{Rules: rules},
		func(Result) error {
			calls++
			return nil
		})
	if err == nil || calls != 0 {
		t.Fatalf("mixed schemas: err = %v, sink ran %d times, want an error and 0", err, calls)
	}
}

// TestEmptyBatch: no entities is a valid (empty) batch.
func TestEmptyBatch(t *testing.T) {
	results, sum, err := Run(nil, Config{})
	if err != nil || len(results) != 0 || sum.Entities != 0 {
		t.Fatalf("empty batch: results=%d sum=%+v err=%v", len(results), sum, err)
	}
}

// TestSummaryMergeAddsEveryCount: Merge adds every count field of a
// Summary and leaves Elapsed alone, so a count added to Summary without
// its line in Merge fails here.
func TestSummaryMergeAddsEveryCount(t *testing.T) {
	sum, more := Summary{Elapsed: time.Second}, Summary{Elapsed: time.Minute}
	sv, mv := reflect.ValueOf(&sum).Elem(), reflect.ValueOf(&more).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if sv.Type().Field(i).Name != "Elapsed" {
			sv.Field(i).SetInt(int64(i + 1))
			mv.Field(i).SetInt(int64(100 * (i + 1)))
		}
	}
	sum.Merge(&more)
	for i := 0; i < sv.NumField(); i++ {
		if name := sv.Type().Field(i).Name; name != "Elapsed" && sv.Field(i).Int() != int64(101*(i+1)) {
			t.Errorf("Merge left %s at %d, want %d", name, sv.Field(i).Int(), 101*(i+1))
		}
	}
	if sum.Elapsed != time.Second {
		t.Errorf("Merge moved Elapsed to %v", sum.Elapsed)
	}
}
