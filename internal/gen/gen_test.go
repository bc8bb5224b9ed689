package gen_test

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/rule"
	"repro/internal/topk"
	"repro/internal/truth"
)

func smallMed() gen.EntityConfig {
	cfg := gen.MedConfig()
	cfg.NumEntities = 300
	return cfg
}

func TestMedShape(t *testing.T) {
	ds := gen.Generate(smallMed())
	if ds.Schema.Arity() != 2+5+12+8+4 {
		t.Errorf("arity = %d", ds.Schema.Arity())
	}
	if len(ds.Entities) != 300 {
		t.Fatalf("entities = %d", len(ds.Entities))
	}
	avg := float64(ds.TotalTuples()) / float64(len(ds.Entities))
	if avg < 2 || avg > 8 {
		t.Errorf("average instance size = %v, want ~4", avg)
	}
	// Master covers non-degraded entities only: ≈ 300 × 0.7 × 0.95.
	if ds.Master.Size() < 160 || ds.Master.Size() > 240 {
		t.Errorf("master size = %d, want ≈ 200", ds.Master.Size())
	}
	f1 := ds.Rules.Form1Only().Len()
	f2 := ds.Rules.Form2Only().Len()
	if f1 == 0 || f2 == 0 || f1 < f2 {
		t.Errorf("rule split f1=%d f2=%d", f1, f2)
	}
}

// groundwork builds the schema-level groundwork the entities of ds
// ground on under rules: once per loop, not once per entity.
func groundwork(t *testing.T, ds *gen.Dataset, rules *rule.Set) *chase.Shared {
	t.Helper()
	sh, err := chase.NewShared(ds.Schema, ds.Master, rules)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// TestMedChurchRosserAndQuality: every generated entity must be
// Church-Rosser, a solid majority must deduce complete targets, and the
// deduced values must overwhelmingly match the ground truth.
func TestMedChurchRosserAndQuality(t *testing.T) {
	ds := gen.Generate(smallMed())
	complete := 0
	attrsTotal, attrsDeduced, attrsCorrect := 0, 0, 0
	sh := groundwork(t, ds, ds.Rules)
	for _, e := range ds.Entities {
		g, err := sh.NewGrounding(e.Instance, chase.Options{})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		res := g.Run(nil)
		if !res.CR {
			t.Fatalf("%s is not Church-Rosser: %s", e.ID, res.Conflict)
		}
		if res.Complete() {
			complete++
		}
		for a := 0; a < ds.Schema.Arity(); a++ {
			attrsTotal++
			v := res.Target.At(a)
			if v.IsNull() {
				continue
			}
			attrsDeduced++
			if v.Equal(e.Truth.At(a)) {
				attrsCorrect++
			}
		}
	}
	completeRate := float64(complete) / float64(len(ds.Entities))
	deducedRate := float64(attrsDeduced) / float64(attrsTotal)
	correctRate := float64(attrsCorrect) / float64(attrsDeduced)
	t.Logf("complete=%.2f deduced=%.2f correct=%.2f", completeRate, deducedRate, correctRate)
	if completeRate < 0.5 || completeRate > 0.9 {
		t.Errorf("complete-target rate = %.2f, want in the paper's regime (~0.66)", completeRate)
	}
	if deducedRate < 0.6 {
		t.Errorf("attribute deduction rate = %.2f, want ≥ 0.6 (~0.73 in the paper)", deducedRate)
	}
	if correctRate < 0.9 {
		t.Errorf("deduced-value correctness = %.2f, want ≥ 0.9", correctRate)
	}
}

// TestMedRuleFormInteraction: the form-(1)-only and form-(2)-only runs
// deduce strictly fewer attributes, and their union is smaller than the
// combined run (the superadditivity of Fig. 6(e)).
func TestMedRuleFormInteraction(t *testing.T) {
	ds := gen.Generate(smallMed())
	rate := func(rules *rule.Set) (float64, float64) {
		deduced, complete, total := 0, 0, 0
		sh := groundwork(t, ds, rules)
		for _, e := range ds.Entities {
			g, err := sh.NewGrounding(e.Instance, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res := g.Run(nil)
			if !res.CR {
				t.Fatalf("not CR under restricted rules")
			}
			if res.Complete() {
				complete++
			}
			for a := 0; a < ds.Schema.Arity(); a++ {
				total++
				if !res.Target.At(a).IsNull() {
					deduced++
				}
			}
		}
		return float64(deduced) / float64(total), float64(complete) / float64(len(ds.Entities))
	}
	both, bothC := rate(ds.Rules)
	f1, f1C := rate(ds.Rules.Form1Only())
	f2, f2C := rate(ds.Rules.Form2Only())
	t.Logf("deduced both=%.2f f1=%.2f f2=%.2f; complete both=%.2f f1=%.2f f2=%.2f",
		both, f1, f2, bothC, f1C, f2C)
	if !(both > f1 && f1 > f2) {
		t.Errorf("want both > form1 > form2, got %.2f %.2f %.2f", both, f1, f2)
	}
	if f1C >= bothC || f2C >= bothC {
		t.Errorf("complete rates: both=%.2f must dominate f1=%.2f f2=%.2f", bothC, f1C, f2C)
	}
}

// TestMedTopKFindsTruth: for entities with incomplete targets, the true
// tuple should usually appear among the top-k candidates (Exp-2).
func TestMedTopKFindsTruth(t *testing.T) {
	ds := gen.Generate(smallMed())
	found, incomplete := 0, 0
	sh := groundwork(t, ds, ds.Rules)
	for _, e := range ds.Entities[:150] {
		g, err := sh.NewGrounding(e.Instance, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := g.Run(nil)
		if !res.CR || res.Complete() {
			continue
		}
		incomplete++
		cands, _, err := topk.TopKCT(g, res.Target, topk.Preference{K: 15})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			if c.Tuple.EqualTo(e.Truth) {
				found++
				break
			}
		}
	}
	if incomplete == 0 {
		t.Fatalf("no incomplete entities in sample")
	}
	rate := float64(found) / float64(incomplete)
	t.Logf("top-15 coverage on incomplete entities: %.2f (%d/%d)", rate, found, incomplete)
	if rate < 0.3 {
		t.Errorf("top-k coverage %.2f too low", rate)
	}
}

func TestCFPGenerates(t *testing.T) {
	ds := gen.Generate(gen.CFPConfig())
	if len(ds.Entities) != 100 {
		t.Fatalf("entities = %d", len(ds.Entities))
	}
	complete := 0
	sh := groundwork(t, ds, ds.Rules)
	for _, e := range ds.Entities {
		g, err := sh.NewGrounding(e.Instance, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := g.Run(nil)
		if !res.CR {
			t.Fatalf("%s not CR: %s", e.ID, res.Conflict)
		}
		if res.Complete() {
			complete++
		}
	}
	t.Logf("CFP complete rate: %d/100", complete)
	if complete < 30 || complete > 95 {
		t.Errorf("CFP complete rate %d out of expected regime", complete)
	}
}

func TestRestShape(t *testing.T) {
	cfg := gen.RestDefault()
	cfg.Restaurants = 300
	ds := gen.GenerateRest(cfg)
	if len(ds.Entities) != 300 {
		t.Fatalf("restaurants = %d", len(ds.Entities))
	}
	if len(ds.Sources) != 1+3+7+2 {
		t.Errorf("sources = %d", len(ds.Sources))
	}
	if len(ds.Claims) == 0 {
		t.Fatalf("no claims")
	}
	closed := 0
	for _, c := range ds.Closed {
		if c {
			closed++
		}
	}
	rate := float64(closed) / 300
	if rate < 0.2 || rate > 0.4 {
		t.Errorf("closed rate = %.2f", rate)
	}
}

// TestRestChaseResolvesViaDated: the chase must be Church-Rosser on
// every restaurant and must resolve closed? correctly exactly where a
// dated source reports.
func TestRestChaseResolvesViaDated(t *testing.T) {
	cfg := gen.RestDefault()
	cfg.Restaurants = 300
	ds := gen.GenerateRest(cfg)
	resolved, correct := 0, 0
	for _, e := range ds.Entities {
		g, err := chase.NewGrounding(chase.Spec{Ie: e.Instance, Rules: ds.Rules}, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := g.Run(nil)
		if !res.CR {
			t.Fatalf("%s not CR: %s", e.ID, res.Conflict)
		}
		v, _ := res.Target.Get("closed")
		hasDated := false
		for _, tp := range e.Instance.Tuples() {
			if a, _ := tp.Get("asOf"); !a.IsNull() {
				hasDated = true
			}
		}
		if hasDated && v.IsNull() {
			t.Errorf("%s: dated source present but closed unresolved", e.ID)
		}
		if !v.IsNull() {
			resolved++
			if v.Equal(model.B(ds.Closed[e.ID])) {
				correct++
			}
		}
	}
	t.Logf("resolved %d/300, correct %d", resolved, correct)
	if resolved == 0 {
		t.Fatalf("chase resolved nothing")
	}
	if float64(correct)/float64(resolved) < 0.95 {
		t.Errorf("chase-resolved closed values not precise: %d/%d", correct, resolved)
	}
}

// TestRestDeduceOrderPrecision: the currency-only subset (DeduceOrder's
// view) concludes closure rarely but always correctly.
func TestRestDeduceOrderPrecision(t *testing.T) {
	cfg := gen.RestDefault()
	cfg.Restaurants = 300
	ds := gen.GenerateRest(cfg)
	curRules := gen.RestCurrencyRules(ds)
	concluded, correct := 0, 0
	for _, e := range ds.Entities {
		te, err := truth.DeduceOrder(e.Instance, nil, curRules)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := te.Get("closed")
		if v.IsNull() {
			continue
		}
		concluded++
		if v.Equal(model.B(ds.Closed[e.ID])) {
			correct++
		}
	}
	t.Logf("DeduceOrder concluded %d/300, correct %d", concluded, correct)
	if concluded == 0 {
		t.Fatalf("DeduceOrder concluded nothing")
	}
	if correct < concluded*9/10 {
		t.Errorf("DeduceOrder precision too low: %d/%d", correct, concluded)
	}
	if concluded > 200 {
		t.Errorf("DeduceOrder should be conservative, concluded %d/300", concluded)
	}
}

func TestSynGenerates(t *testing.T) {
	cfg := gen.SynDefault()
	cfg.Tuples = 200
	cfg.Im = 50
	ds := gen.GenerateSyn(cfg)
	e := ds.Entities[0]
	if e.Instance.Size() != 200 {
		t.Fatalf("tuples = %d", e.Instance.Size())
	}
	if ds.Master.Size() != 50 {
		t.Fatalf("master = %d", ds.Master.Size())
	}
	if ds.Rules.Len() != 60 {
		t.Fatalf("rules = %d", ds.Rules.Len())
	}
	f2 := ds.Rules.Form2Only().Len()
	if f2 < 10 || f2 > 20 {
		t.Errorf("form-2 share = %d/60, want ≈ 15", f2)
	}

	g, err := chase.NewGrounding(chase.Spec{Ie: e.Instance, Im: ds.Master, Rules: ds.Rules}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := g.Run(nil)
	if !res.CR {
		t.Fatalf("Syn not CR: %s", res.Conflict)
	}
	if res.Complete() {
		t.Fatalf("Syn target should be incomplete (free attributes)")
	}
	// Version and currency attributes must be resolved to the truth.
	for _, a := range []string{"version", "c0", "m0"} {
		v, _ := res.Target.Get(a)
		w, _ := e.Truth.Get(a)
		if !v.Equal(w) {
			t.Errorf("te[%s] = %v, want %v", a, v, w)
		}
	}

	// The top-k algorithms must run on it.
	cands, _, err := topk.TopKCT(g, res.Target, topk.Preference{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatalf("no candidates on Syn")
	}
}

// TestSynRulePrefixesStayUsable: the ‖Σ‖-scaling experiment truncates
// the rule set; every prefix length must remain Church-Rosser.
func TestSynRulePrefixesStayUsable(t *testing.T) {
	cfg := gen.SynDefault()
	cfg.Tuples = 100
	cfg.Im = 30
	cfg.Rules = 100
	ds := gen.GenerateSyn(cfg)
	e := ds.Entities[0]
	for _, n := range []int{20, 40, 60, 80, 100} {
		g, err := chase.NewGrounding(chase.Spec{Ie: e.Instance, Im: ds.Master, Rules: ds.Rules.Truncate(n)}, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res := g.Run(nil); !res.CR {
			t.Errorf("prefix %d not CR: %s", n, res.Conflict)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := gen.Generate(smallMed())
	b := gen.Generate(smallMed())
	if a.TotalTuples() != b.TotalTuples() {
		t.Fatalf("generation not deterministic")
	}
	for i := range a.Entities {
		if !a.Entities[i].Truth.EqualTo(b.Entities[i].Truth) {
			t.Fatalf("truth differs at entity %d", i)
		}
	}
}
