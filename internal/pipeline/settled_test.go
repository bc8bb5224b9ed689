package pipeline

import (
	"testing"

	"repro/internal/er"
	"repro/internal/model"
	"repro/internal/paperdata"
	"repro/internal/rule"
)

// TestSettledPaperExample: the four Michael Jordan tuples, resolved on
// LN next to a second planted entity, settle to the paper's target.
func TestSettledPaperExample(t *testing.T) {
	schema := paperdata.StatSchema()
	var tuples []*model.Tuple
	for _, tp := range paperdata.Stat().Tuples() {
		nt := model.NewTuple(schema)
		for a := 0; a < schema.Arity(); a++ {
			nt.SetAt(a, tp.At(a))
		}
		tuples = append(tuples, nt)
	}
	// A second entity: Scottie Pippen, two consistent tuples.
	null := model.NullValue()
	tuples = append(tuples,
		model.MustTuple(schema, model.S("Scottie"), null, model.S("Pippen"),
			model.I(10), model.I(170), model.I(33), model.S("NBA"),
			model.S("Chicago Bulls"), model.S("United Center")),
		model.MustTuple(schema, model.S("Scottie"), null, model.S("Pippen"),
			model.I(20), model.I(350), model.I(33), model.S("NBA"),
			model.S("Chicago Bulls"), model.S("United Center")),
	)
	im := paperdata.NBA()
	rules, err := rule.NewSet(schema, im.Schema(), paperdata.Rules()...)
	if err != nil {
		t.Fatal(err)
	}
	entities, err := er.Resolve(tuples, schema, er.Config{KeyAttrs: []string{"LN"}, Threshold: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	// t1 carries LN = null, which never matches the ER key, so it may
	// form its own singleton cluster: 2 or 3 entities are both
	// legitimate resolutions.
	if len(entities) < 2 || len(entities) > 3 {
		t.Fatalf("entities = %d, want 2 or 3", len(entities))
	}
	results, sum, err := Run(entities, Config{Master: im, Rules: rules, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	var settled []string
	found := false
	for _, r := range results {
		if s := r.Settled(); s != nil {
			settled = append(settled, s.String())
			found = found || s.EqualTo(paperdata.Target())
		}
	}
	if !found {
		t.Errorf("paper target not among settled targets: %v", settled)
	}
	if sum.Complete == 0 {
		t.Errorf("expected deduced entities, got %s", sum.String())
	}
}

// TestSettledGeneratedDataset: a generated Med relation, resolved on
// name and settled with one candidate per incomplete entity, matches
// the ground truth on the attributes it settles.
func TestSettledGeneratedDataset(t *testing.T) {
	ds := testDataset(t, 120)
	var tuples []*model.Tuple
	for _, e := range ds.Entities {
		tuples = append(tuples, e.Instance.Tuples()...)
	}
	entities, err := er.Resolve(tuples, ds.Schema, er.Config{
		KeyAttrs: []string{"name"}, BlockAttr: "name", BlockPrefix: 12, Threshold: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if len(entities) != len(ds.Entities) {
		t.Fatalf("ER recovered %d entities, want %d", len(entities), len(ds.Entities))
	}
	results, sum, err := Run(entities, Config{Master: ds.Master, Rules: ds.Rules, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	truthByName := map[string]*model.Tuple{}
	for _, e := range ds.Entities {
		truthByName[e.ID] = e.Truth
	}
	attrsTotal, attrsCorrect := 0, 0
	for _, r := range results {
		s := r.Settled()
		if s == nil {
			continue
		}
		name, _ := s.Get("name")
		truth := truthByName[name.Str()]
		if truth == nil {
			t.Fatalf("settled tuple with unknown name %v", name)
		}
		for a := 0; a < ds.Schema.Arity(); a++ {
			if s.At(a).IsNull() {
				continue
			}
			attrsTotal++
			if s.At(a).Equal(truth.At(a)) {
				attrsCorrect++
			}
		}
	}
	rate := float64(attrsCorrect) / float64(attrsTotal)
	t.Logf("non-null settled attribute accuracy %.3f; %s", rate, sum.String())
	if rate < 0.85 {
		t.Errorf("settled accuracy %.3f too low", rate)
	}
	if sum.NotCR > 0 || sum.Errors > 0 {
		t.Errorf("generated dataset should be conflict- and error-free: %s", sum.String())
	}
	if sum.WithCandidates == 0 {
		t.Errorf("expected some entities settled from candidates: %s", sum.String())
	}
}

// TestSettledNonCR: an entity whose rules conflict settles on nothing,
// and neither does an incomplete one whose search is off.
func TestSettledNonCR(t *testing.T) {
	s := model.MustSchema("r", "id", "v")
	tuples := []*model.Tuple{
		model.MustTuple(s, model.S("e1"), model.I(1)),
		model.MustTuple(s, model.S("e1"), model.I(2)),
	}
	entities, err := er.GroupBy(tuples, s, "id")
	if err != nil {
		t.Fatal(err)
	}
	up := &rule.Form1{RuleName: "up",
		LHS: []rule.Pred{rule.Cmp(rule.T1("v"), rule.Lt, rule.T2("v"))}, RHS: "v"}
	down := &rule.Form1{RuleName: "down",
		LHS: []rule.Pred{rule.Cmp(rule.T1("v"), rule.Gt, rule.T2("v"))}, RHS: "v"}
	for _, tc := range []struct {
		rules  *rule.Set
		topK   int
		status string
	}{
		{rule.MustSet(s, nil, up, down), 1, "not-church-rosser"},
		{rule.MustSet(s, nil), 0, "incomplete"},
	} {
		results, _, err := Run(entities, Config{Rules: tc.rules, TopK: tc.topK})
		if err != nil {
			t.Fatal(err)
		}
		r := results[0]
		if r.Status() != tc.status {
			t.Fatalf("status = %s, want %s", r.Status(), tc.status)
		}
		if tc.status == "not-church-rosser" && r.Deduction.Conflict == "" {
			t.Errorf("non-CR entity reports no conflict")
		}
		if got := r.Settled(); got != nil {
			t.Errorf("%s entity settled on %v", tc.status, got)
		}
	}
}
