package topk

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/chase"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/rule"
)

// The search's setup is built from the Shared's ranked master columns
// and the grounding's ID groups. These tests keep the setup it
// replaced — model.ActiveDomain over every master row, OccurrenceWeight
// hashing Keys, Key computed on every comparison — as an oracle, and
// require the two to build the same ranked lists and base score, and
// so the same candidates and Stats, with neither growing the
// grounding's dictionary.

// OccurrenceWeight is the default preference of the paper's
// experiments computed the direct way: w_Ai(v) is the number of
// occurrences of v in the Ai column of Ie (values only present in
// master data count 0, and ⊥ counts 0 unless Ie carries it).
func OccurrenceWeight(ie *model.EntityInstance) func(string, model.Value) float64 {
	counts := make(map[string]map[string]float64, ie.Schema().Arity())
	for a := 0; a < ie.Schema().Arity(); a++ {
		attr := ie.Schema().Attr(a)
		m := make(map[string]float64)
		for _, t := range ie.Tuples() {
			v := t.At(a)
			if !v.IsNull() {
				m[v.Key()]++
			}
		}
		counts[attr] = m
	}
	return func(attr string, v model.Value) float64 {
		return counts[attr][v.Key()]
	}
}

// oracleProblem is the direct setup: each null attribute's list is
// model.ActiveDomain over Ie and every master row, capped at MaxDomain
// with Ie's values kept, plus ⊥; every value is looked up in the
// grounding's dictionary (model.NoID when it lacks it) and weighted by
// the caller's Weight or OccurrenceWeight.
func oracleProblem(g *chase.Grounding, te *model.Tuple, pref Preference) *problem {
	p := &problem{g: g, te: te.Clone(), pref: pref, dict: g.Dict()}
	for a := 0; a < g.Schema().Arity(); a++ {
		if v := te.At(a); !v.IsNull() {
			p.te.SetAtID(a, v, p.dict, p.lookup(v))
		}
	}
	if pref.Weight == nil {
		pref.Weight = OccurrenceWeight(g.Instance())
		p.pref.Weight = pref.Weight
	}
	schema := g.Schema()
	for a := 0; a < schema.Arity(); a++ {
		if !te.At(a).IsNull() {
			continue
		}
		attr := schema.Attr(a)
		maxDomain := pref.MaxDomain
		if maxDomain == 0 {
			maxDomain = 64
		}
		var vals []model.Value
		if dom, ok := pref.Domains[attr]; ok {
			vals = append([]model.Value(nil), dom...)
		} else {
			var counts []int
			vals, counts = model.ActiveDomain(g.Instance(), g.Master(), attr)
			if len(vals) > maxDomain {
				kept := vals[:0]
				for i, v := range vals {
					if counts[i] > 0 || len(kept) < maxDomain {
						kept = append(kept, v)
					}
				}
				vals = kept
			}
			vals = append(vals, model.Bottom)
		}
		list := make([]scoredValue, len(vals))
		for i, v := range vals {
			list[i] = scoredValue{v: v, w: pref.Weight(attr, v), id: p.lookup(v)}
		}
		// sortScored comparing freshly computed Keys, as the search
		// did before entries carried them.
		less := func(a, b scoredValue) bool {
			if a.w != b.w {
				return a.w < b.w
			}
			return a.v.Key() > b.v.Key()
		}
		for i := 1; i < len(list); i++ {
			for j := i; j > 0 && less(list[j-1], list[j]); j-- {
				list[j-1], list[j] = list[j], list[j-1]
			}
		}
		for i := range list {
			list[i].key = list[i].v.Key()
		}
		p.zAttr = append(p.zAttr, a)
		p.lists = append(p.lists, list)
	}
	return p
}

// diffSetup describes the first difference between two problems'
// ranked lists and base scores ("" when they agree). Entries are
// compared by value kind and String (so a Norm form standing in for
// the first occurrence shows), Key, weight and ID.
func diffSetup(got, want *problem) string {
	if fmt.Sprint(got.zAttr) != fmt.Sprint(want.zAttr) {
		return fmt.Sprintf("null attributes %v, want %v", got.zAttr, want.zAttr)
	}
	if b, w := got.baseScore(), want.baseScore(); b != w && !(math.IsNaN(b) && math.IsNaN(w)) {
		return fmt.Sprintf("base score %v, want %v", b, w)
	}
	for i := range got.lists {
		g, w := got.lists[i], want.lists[i]
		if len(g) != len(w) {
			return fmt.Sprintf("attr %d: list length %d, want %d", got.zAttr[i], len(g), len(w))
		}
		for j := range g {
			x, y := g[j], w[j]
			if x.v.Kind() != y.v.Kind() || x.v.String() != y.v.String() || x.key != y.key ||
				x.id != y.id || (x.w != y.w && !(math.IsNaN(x.w) && math.IsNaN(y.w))) {
				return fmt.Sprintf("attr %d entry %d: %s %q key=%q w=%v id=%d, want %s %q key=%q w=%v id=%d",
					got.zAttr[i], j, x.v.Kind(), x.v, x.key, x.w, x.id, y.v.Kind(), y.v, y.key, y.w, y.id)
			}
		}
	}
	return ""
}

// checkNoGrowth fails when a search or its setup grew either
// grounding's dictionary: readers never insert.
func checkNoGrowth(t testing.TB, stage string, gs []*chase.Grounding, sizes []int) {
	t.Helper()
	for i, g := range gs {
		if g.Dict().Size() != sizes[i] {
			t.Fatalf("%s grew a dictionary from %d to %d values", stage, sizes[i], g.Dict().Size())
		}
	}
}

// renderRun renders one algorithm's output completely.
func renderRun(cands []Candidate, st Stats, err error) string {
	out := fmt.Sprintf("err=%v checks=%d pops=%d gen=%d", err, st.Checks, st.Pops, st.Generated)
	for _, c := range cands {
		out += fmt.Sprintf(" %s@%v", c.Tuple.Key(), c.Score)
	}
	return out
}

// algorithms runs each of the three algorithms on a prepared problem.
var algorithms = []struct {
	name string
	run  func(*problem) ([]Candidate, Stats, error)
}{
	{"TopKCT", topKCT},
	{"RankJoinCT", func(p *problem) ([]Candidate, Stats, error) { return rankJoinCT(p, RankJoinOptions{}) }},
	{"TopKCTh", topKCTh},
}

// setupPair holds two identically built Shareds: the search runs on
// one and the oracle on the other.
type setupPair struct{ got, want *chase.Shared }

func newSetupPair(t testing.TB, schema *model.Schema, im *model.MasterRelation, rs *rule.Set) setupPair {
	t.Helper()
	var sp setupPair
	var err error
	if sp.got, err = chase.NewShared(schema, im, rs); err != nil {
		t.Fatal(err)
	}
	if sp.want, err = chase.NewShared(schema, im, rs); err != nil {
		t.Fatal(err)
	}
	return sp
}

// compare grounds ie on both sides and checks the setup of each
// preference, and — when algos is set — the three algorithms' output.
// te overrides the deduced target when non-nil.
func (sp setupPair) compare(t testing.TB, ie *model.EntityInstance, te *model.Tuple, prefs []Preference, algos bool) {
	t.Helper()
	gg, err := sp.got.NewGrounding(ie, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := sp.want.NewGrounding(ie, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if te == nil {
		res := gg.Run(nil)
		if !res.CR || res.Complete() {
			return
		}
		te = res.Target
	}
	gs := []*chase.Grounding{gg, gw}
	sizes := []int{gg.Dict().Size(), gw.Dict().Size()}
	for _, pref := range prefs {
		if d := diffSetup(newProblem(gg, te, pref), oracleProblem(gw, te, pref)); d != "" {
			t.Fatalf("MaxDomain %d: %s", pref.MaxDomain, d)
		}
		checkNoGrowth(t, "setup", gs, sizes)
		if !algos {
			continue
		}
		for _, alg := range algorithms {
			got := renderRun(alg.run(newProblem(gg, te, pref)))
			want := renderRun(alg.run(oracleProblem(gw, te, pref)))
			if got != want {
				t.Fatalf("%s MaxDomain %d:\n got  %s\n want %s", alg.name, pref.MaxDomain, got, want)
			}
		}
		checkNoGrowth(t, "search", gs, sizes)
	}
}

// TestSetupMatchesOracle compares the setup and the three algorithms
// with the oracle on every incomplete entity of gen Med and CFP and on
// a Syn entity, at the default MaxDomain, a tight one and an
// unbounded one.
func TestSetupMatchesOracle(t *testing.T) {
	med := gen.MedConfig()
	med.NumEntities = 300
	syn := gen.SynDefault()
	syn.Tuples, syn.Im = 120, 80
	prefs := []Preference{{K: 3, MaxChecks: 300}, {K: 3, MaxDomain: 3, MaxChecks: 300},
		{K: 3, MaxDomain: 1000, MaxChecks: 300}}
	for _, ds := range []*gen.Dataset{gen.Generate(med), gen.Generate(gen.CFPConfig()), gen.GenerateSyn(syn)} {
		t.Run(ds.Name, func(t *testing.T) {
			sp := newSetupPair(t, ds.Entities[0].Instance.Schema(), ds.Master, ds.Rules)
			for i, e := range ds.Entities {
				// Every entity's lists; every fourth entity's searches.
				sp.compare(t, e.Instance, nil, prefs, i%4 == 0)
			}
		})
	}
}

// fuzzPalette holds the values whose Key, Norm and String classes
// disagree: "3" as string, int and float; ±0 and NaN; a string equal
// to ⊥; "10" against 10 and 9 (String order differs from numeric);
// "true" against true; and a float and an int whose Keys render in
// exponent form.
var fuzzPalette = []model.Value{
	{}, model.S("3"), model.I(3), model.F(3), model.F(0), model.F(math.Copysign(0, -1)),
	model.F(math.NaN()), model.S("⊥"), model.S("10"), model.I(10), model.I(9),
	model.S("true"), model.B(true), model.F(1e21), model.I(1e18),
}

// FuzzTopKSetup compares the setup with the oracle on small instance
// and master columns drawn from fuzzPalette, at MaxDomain
// {0,1,2,5,1000}, with and without duplicate Domains values, a custom
// Weight (finite, or NaN for strings, so that sortScored keeps ties
// where the list's order before sorting put them) and a form-(2) rule
// (which reads a master column), then runs TopKCT, RankJoinCT and
// TopKCTh on both sides. Neither side may grow its grounding's
// dictionary.
func FuzzTopKSetup(f *testing.F) {
	f.Add([]byte{3, 4, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0x1f, 5, 1, 1, 2, 3, 9, 10, 8, 6, 6, 5, 4, 7, 7, 7, 12, 11, 13, 14, 2, 1, 0})
	f.Add([]byte{0xa2, 2, 0, 6, 6, 6, 5, 4, 4, 3, 8, 9, 10, 7, 11, 12, 13, 14, 0, 0, 1})
	// "3" and 3 tie on count and String in Ie: only first occurrence
	// orders them, and NaN weights keep that order through the sort.
	f.Add([]byte{0, 1, 2, 1, 0, 0, 2, 0, 0})
	// Ie carries 10 as an int (a Norm form would be a float) and ⊥,
	// which ⊥'s weight must count.
	f.Add([]byte{0, 1, 0, 9, 0, 0, 7, 0, 0})
	// true, 0 and "10" rank differently by String and by Key; at
	// MaxDomain 2 the master values walked past are not listed.
	f.Add([]byte{16, 24, 0, 1, 0, 0, 12, 0, 0, 4, 0, 0, 8, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		flags, sizes, mode, data := data[0], data[1], data[2], data[3:]
		next := func() model.Value {
			if len(data) == 0 {
				return model.Value{}
			}
			v := fuzzPalette[int(data[0])%len(fuzzPalette)]
			data = data[1:]
			return v
		}
		schema := model.MustSchema("R", "a", "b", "c")
		mschema := model.MustSchema("M", "a", "b", "m")
		ie := model.NewEntityInstance(schema)
		for i := 0; i < 1+int(sizes&7); i++ {
			ie.MustAdd(model.MustTuple(schema, next(), next(), next()))
		}
		im := model.NewMasterRelation(mschema)
		for i := 0; i < int(sizes>>3&15); i++ {
			im.MustAdd(model.MustTuple(mschema, next(), next(), next()))
		}
		var rules []rule.Rule
		if flags&1 != 0 {
			rules = append(rules, &rule.Form2{RuleName: "m", TargetAttr: "b", MasterAttr: "b",
				Conds: []rule.MasterCond{rule.CondMaster("a", "a")}})
		}
		rs, err := rule.NewSet(schema, mschema, rules...)
		if err != nil {
			t.Fatal(err)
		}
		// te: a is null, b and c are null or a palette value.
		te := model.NewTuple(schema)
		if flags&2 != 0 {
			te.SetAt(1, next())
		}
		if flags&4 != 0 {
			te.SetAt(2, next())
		}
		pref := Preference{K: 1 + int(flags>>5&1), MaxDomain: []int{0, 1, 2, 5, 1000}[int(sizes>>7)+int(flags>>3&3)]}
		if flags&0x80 != 0 {
			pref.Domains = map[string][]model.Value{"c": {next(), model.F(3), model.I(3), next(), model.I(3)}}
		}
		if mode&3 != 0 {
			nan := mode&2 != 0
			pref.Weight = func(attr string, v model.Value) float64 {
				if nan && v.Kind() == model.String {
					return math.NaN()
				}
				return float64(len(attr)*7+len(v.Key())) / 3
			}
		}
		sp := newSetupPair(t, schema, im, rs)
		sp.compare(t, ie, te, []Preference{pref}, true)
	})
}
