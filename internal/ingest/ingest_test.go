package ingest_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/csvio"
	"repro/internal/er"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/topk"
)

// fingerprint renders everything a Result exposes for one entity, so
// equality means byte-identical per-entity output (the pipeline suite's
// idiom).
func fingerprint(r pipeline.Result) string {
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

// datasetCSV renders a generated dataset's tuples as one CSV relation;
// shuffle randomizes row order across entities (seeded).
func datasetCSV(t *testing.T, ds *gen.Dataset, shuffle int64) string {
	t.Helper()
	var tuples []*model.Tuple
	for _, e := range ds.Entities {
		tuples = append(tuples, e.Instance.Tuples()...)
	}
	if shuffle != 0 {
		rng := rand.New(rand.NewSource(shuffle))
		rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
	}
	var buf bytes.Buffer
	if err := csvio.WriteRelation(&buf, ds.Schema, tuples); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func testConfig(ds *gen.Dataset, workers int) pipeline.Config {
	return pipeline.Config{Master: ds.Master, Rules: ds.Rules, Workers: workers,
		TopK: 3, Pref: topk.Preference{MaxChecks: 2000}}
}

// materialized is the pre-PR-9 path: read everything, group, run.
func materialized(t *testing.T, csvText string, cfg pipeline.Config) ([]pipeline.Result, pipeline.Summary) {
	t.Helper()
	schema, tuples, err := csvio.ReadRelation(strings.NewReader(csvText), "rel")
	if err != nil {
		t.Fatal(err)
	}
	ents, err := er.GroupBy(tuples, schema, "name")
	if err != nil {
		t.Fatal(err)
	}
	results, sum, err := pipeline.Run(ents, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return results, sum
}

// TestStreamCSVEquivalence is invariant 10: for run-length input,
// streaming ingest is byte-identical to the materialized run for every
// window size — 1, 2, 7, and unbounded (run under -race in CI).
func TestStreamCSVEquivalence(t *testing.T) {
	cfg := gen.MedConfig()
	cfg.NumEntities = 25
	ds := gen.Generate(cfg)
	csvText := datasetCSV(t, ds, 0) // entity order: run-length input
	pcfg := testConfig(ds, 4)
	wantResults, wantSum := materialized(t, csvText, pcfg)

	for _, w := range []er.Window{
		{MaxEntities: 1},
		{MaxEntities: 2},
		{MaxEntities: 7},
		{}, // unbounded
	} {
		var got []pipeline.Result
		sum, err := ingest.StreamCSV(strings.NewReader(csvText), "rel",
			ingest.Options{By: "name", Window: w}, pcfg,
			func(r pipeline.Result) error { got = append(got, r); return nil })
		if err != nil {
			t.Fatalf("window %+v: %v", w, err)
		}
		if len(got) != len(wantResults) {
			t.Fatalf("window %+v: %d results, want %d", w, len(got), len(wantResults))
		}
		for i := range got {
			if got[i].Index != i {
				t.Fatalf("window %+v: result %d has Index %d", w, i, got[i].Index)
			}
			if fingerprint(got[i]) != fingerprint(wantResults[i]) {
				t.Errorf("window %+v entity %d:\nstream %s\nbatch  %s",
					w, i, fingerprint(got[i]), fingerprint(wantResults[i]))
			}
		}
		sum.Elapsed, wantSum.Elapsed = 0, 0
		if sum != wantSum {
			t.Errorf("window %+v summary %+v, want %+v", w, sum, wantSum)
		}
	}
}

// TestStreamCSVShuffledUnbounded: with no window, any row order is
// byte-identical to the materialized run over the same (shuffled) CSV.
func TestStreamCSVShuffledUnbounded(t *testing.T) {
	cfg := gen.MedConfig()
	cfg.NumEntities = 15
	ds := gen.Generate(cfg)
	csvText := datasetCSV(t, ds, 7)
	pcfg := testConfig(ds, 4)
	wantResults, wantSum := materialized(t, csvText, pcfg)

	var got []pipeline.Result
	sum, err := ingest.StreamCSV(strings.NewReader(csvText), "rel",
		ingest.Options{By: "name"}, pcfg,
		func(r pipeline.Result) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantResults) {
		t.Fatalf("%d results, want %d", len(got), len(wantResults))
	}
	for i := range got {
		if fingerprint(got[i]) != fingerprint(wantResults[i]) {
			t.Errorf("entity %d:\nstream %s\nbatch  %s", i, fingerprint(got[i]), fingerprint(wantResults[i]))
		}
	}
	sum.Elapsed, wantSum.Elapsed = 0, 0
	if sum != wantSum {
		t.Errorf("summary %+v, want %+v", sum, wantSum)
	}
}

// TestStreamCSVWindowRefusal: input too disordered for the window must
// refuse with a WindowError — never succeed with different results.
func TestStreamCSVWindowRefusal(t *testing.T) {
	cfg := gen.MedConfig()
	cfg.NumEntities = 15
	ds := gen.Generate(cfg)
	csvText := datasetCSV(t, ds, 7) // shuffled: keys interleave
	pcfg := testConfig(ds, 4)
	_, err := ingest.StreamCSV(strings.NewReader(csvText), "rel",
		ingest.Options{By: "name", Window: er.Window{MaxEntities: 2}}, pcfg,
		func(r pipeline.Result) error { return nil })
	var we *er.WindowError
	if !errors.As(err, &we) {
		t.Fatalf("shuffled input at window 2: want WindowError, got %v", err)
	}
}

// TestStreamCSVSkipsBadRows: OnRowError-skip drops the row, keeps the
// entity, and the rest of the run matches a materialized run over the
// good rows.
func TestStreamCSVSkipsBadRows(t *testing.T) {
	cfg := gen.MedConfig()
	cfg.NumEntities = 5
	ds := gen.Generate(cfg)
	csvText := datasetCSV(t, ds, 0)
	lines := strings.Split(strings.TrimRight(csvText, "\n"), "\n")
	// Inject a ragged row inside the second entity's run.
	bad := append([]string{}, lines[:4]...)
	bad = append(bad, "ragged")
	bad = append(bad, lines[4:]...)
	badCSV := strings.Join(bad, "\n") + "\n"

	pcfg := testConfig(ds, 2)
	wantResults, _ := materialized(t, csvText, pcfg)
	var skipped int
	var got []pipeline.Result
	_, err := ingest.StreamCSV(strings.NewReader(badCSV), "rel",
		ingest.Options{By: "name", Window: er.Window{MaxEntities: 2},
			OnRowError: func(err error) error {
				if !csvio.IsRowError(err) {
					return err
				}
				skipped++
				return nil
			}}, pcfg,
		func(r pipeline.Result) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Fatalf("skipped %d rows, want 1", skipped)
	}
	if len(got) != len(wantResults) {
		t.Fatalf("%d results, want %d", len(got), len(wantResults))
	}
	for i := range got {
		if fingerprint(got[i]) != fingerprint(wantResults[i]) {
			t.Errorf("entity %d differs after skipped row", i)
		}
	}
	// Without a handler the same input aborts.
	_, err = ingest.StreamCSV(strings.NewReader(badCSV), "rel",
		ingest.Options{By: "name"}, pcfg, func(pipeline.Result) error { return nil })
	if !csvio.IsRowError(err) {
		t.Fatalf("nil handler should abort with the row error, got %v", err)
	}
}

func TestRunLength(t *testing.T) {
	cfg := gen.MedConfig()
	cfg.NumEntities = 10
	ds := gen.Generate(cfg)
	sorted := datasetCSV(t, ds, 0)
	shuffled := datasetCSV(t, ds, 3)
	if ok, err := ingest.RunLength(strings.NewReader(sorted), "rel", "name"); err != nil || !ok {
		t.Fatalf("entity-ordered input: RunLength = %v, %v", ok, err)
	}
	if ok, err := ingest.RunLength(strings.NewReader(shuffled), "rel", "name"); err != nil || ok {
		t.Fatalf("shuffled input: RunLength = %v, %v", ok, err)
	}
	if ok, err := ingest.RunLength(strings.NewReader("id,v\n1,a\n,b\n1,c\n"), "rel", "id"); err != nil || ok {
		t.Fatalf("null-split run should not count as contiguous: %v, %v", ok, err)
	}
	if ok, err := ingest.RunLength(strings.NewReader("id,v\n1,a\n\"x\n1,c\n"), "rel", "id"); err != nil || !ok {
		t.Fatalf("bad rows should be skipped by detection: %v, %v", ok, err)
	}
	var ue *er.UnknownAttrError
	if _, err := ingest.RunLength(strings.NewReader(sorted), "rel", "nope"); !errors.As(err, &ue) {
		t.Fatalf("unknown attr: %v", err)
	}
}

// TestSeedUpdaterEquivalence: a streamed seed leaves the updater in the
// same state — same per-entity results, same summary totals, same
// snapshot — as the materialized reference: er.GroupBy (invariant 10's
// reference grouping) plus one Apply keyed by Value.Key.
func TestSeedUpdaterEquivalence(t *testing.T) {
	cfg := gen.MedConfig()
	cfg.NumEntities = 20
	ds := gen.Generate(cfg)
	csvText := datasetCSV(t, ds, 0)
	keyOf := func(v model.Value) (string, error) { return v.Key(), nil }

	// Materialized seed.
	schemaM, tuplesM, err := csvio.ReadRelation(strings.NewReader(csvText), "rel")
	if err != nil {
		t.Fatal(err)
	}
	pcfgM := testConfig(ds, 4)
	uM, err := pipeline.NewUpdater(schemaM, pcfgM)
	if err != nil {
		t.Fatal(err)
	}
	entities, err := er.GroupBy(tuplesM, schemaM, "name")
	if err != nil {
		t.Fatal(err)
	}
	ups := make([]pipeline.Update, len(entities))
	for i, ie := range entities {
		id, _ := ie.Tuples()[0].Get("name")
		ups[i] = pipeline.Update{Key: id.Key(), Tuples: ie.Tuples()}
	}
	wantResults, wantSum, err := uM.Apply(ups)
	if err != nil {
		t.Fatal(err)
	}

	// Streamed seed, small batches so several Apply calls happen.
	it, err := csvio.NewTupleIterator(strings.NewReader(csvText), "rel")
	if err != nil {
		t.Fatal(err)
	}
	pcfgS := testConfig(ds, 4)
	uS, err := pipeline.NewUpdater(it.Schema(), pcfgS)
	if err != nil {
		t.Fatal(err)
	}
	var got []pipeline.Result
	sum, err := ingest.SeedUpdater(uS, it, ingest.SeedOptions{
		By: "name", KeyOf: keyOf, Window: er.Window{MaxEntities: 1}, Batch: 3,
		Sink: func(r pipeline.Result) error { got = append(got, r); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(wantResults) {
		t.Fatalf("%d results, want %d", len(got), len(wantResults))
	}
	for i := range got {
		if got[i].Key != wantResults[i].Key {
			t.Fatalf("result %d key %q, want %q", i, got[i].Key, wantResults[i].Key)
		}
		if fingerprint(got[i]) != fingerprint(wantResults[i]) {
			t.Errorf("entity %q:\nstream %s\nbatch  %s",
				got[i].Key, fingerprint(got[i]), fingerprint(wantResults[i]))
		}
	}
	sum.Elapsed, wantSum.Elapsed = 0, 0
	if sum != wantSum {
		t.Errorf("summary %+v, want %+v", sum, wantSum)
	}
	// Same live state: snapshots agree key for key.
	keysM, snapM, _, err := uM.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	keysS, snapS, _, err := uS.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(keysM) != len(keysS) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(keysM), len(keysS))
	}
	for i := range keysM {
		if keysM[i] != keysS[i] {
			t.Fatalf("snapshot key %d: %q vs %q", i, keysS[i], keysM[i])
		}
		if fingerprint(snapS[i]) != fingerprint(snapM[i]) {
			t.Errorf("snapshot entity %q differs", keysM[i])
		}
	}
}

// TestSeedUpdaterNullIdentifier: a null routing key aborts the seed.
func TestSeedUpdaterNullIdentifier(t *testing.T) {
	it, err := csvio.NewTupleIterator(strings.NewReader("name,v\na,1\n,2\n"), "rel")
	if err != nil {
		t.Fatal(err)
	}
	u, err := pipeline.NewUpdater(it.Schema(), pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ingest.SeedUpdater(u, it, ingest.SeedOptions{By: "name"})
	if err == nil || !strings.Contains(err.Error(), "null") {
		t.Fatalf("want null-identifier rejection, got %v", err)
	}
}
