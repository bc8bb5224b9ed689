package chase_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/chase"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/rule"
	"repro/internal/topk"
)

// masterFixture is a Shared over R(a, b, c) and master M(a, x, b)
// whose a column mixes values that share a String, a Norm class or
// both; c has no master column.
func masterFixture(t *testing.T) (*chase.Shared, *model.EntityInstance) {
	t.Helper()
	schema := model.MustSchema("R", "a", "b", "c")
	mschema := model.MustSchema("M", "a", "x", "b")
	im := model.NewMasterRelation(mschema)
	for _, v := range []model.Value{
		model.S("b"), model.I(3), model.S("3"), model.F(3), model.F(math.Copysign(0, -1)),
		model.I(0), model.S("a"), {}, model.F(math.NaN()), model.F(math.NaN()),
		model.S("10"), model.I(10), model.S("b"),
	} {
		im.MustAdd(model.MustTuple(mschema, v, model.S("x"), model.S("y")))
	}
	rs, err := rule.NewSet(schema, mschema)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := chase.NewShared(schema, im, rs)
	if err != nil {
		t.Fatal(err)
	}
	ie := model.NewEntityInstance(schema)
	ie.MustAdd(model.MustTuple(schema, model.S("q"), model.S("y"), model.I(1)))
	return sh, ie
}

// TestMasterColumnRanking pins the ranked column: one entry per Norm
// class represented by its first master row (F(-0) over I(0), I(3)
// over F(3)), ordered by String with ties in master row order, Keys
// and base IDs precomputed — exactly model.ActiveDomain's order for
// values an instance does not carry.
func TestMasterColumnRanking(t *testing.T) {
	sh, ie := masterFixture(t)
	g, err := sh.NewGrounding(ie, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	col := g.MasterColumn(0)
	want := []model.Value{model.F(math.Copysign(0, -1)), model.S("10"), model.I(10), model.I(3),
		model.S("3"), model.F(math.NaN()), model.S("a"), model.S("b")}
	if len(col) != len(want) {
		t.Fatalf("column a holds %d values, want %d: %v", len(col), len(want), col)
	}
	for i, w := range want {
		mv := col[i]
		if mv.Value.Kind() != w.Kind() || mv.Value.String() != w.String() || mv.Key != w.Key() {
			t.Errorf("entry %d = %s %q key %q, want %s %q key %q",
				i, mv.Value.Kind(), mv.Value, mv.Key, w.Kind(), w, w.Key())
		}
		if id, ok := sh.Dict().Lookup(w); !ok || mv.ID != id {
			t.Errorf("entry %d carries ID %d, the base has (%d, %v)", i, mv.ID, id, ok)
		}
	}
	empty := model.NewEntityInstance(ie.Schema())
	empty.MustAdd(model.NewTuple(ie.Schema()))
	ad, _ := model.ActiveDomain(empty, g.Master(), "a")
	if fmt.Sprint(ad) != fmt.Sprint(want) {
		t.Errorf("ActiveDomain over the master = %v, want %v", ad, want)
	}
	if got := g.MasterColumn(1); len(got) != 1 || got[0].Value.String() != "y" {
		t.Errorf("column b = %v, want [y]", got)
	}
	if got := g.MasterColumn(2); got != nil {
		t.Errorf("column c has no master attribute, got %v", got)
	}
}

// TestMasterColumnSharedAcrossVersions: every grounding of a Shared,
// and every Extend version, reads the one ranked slice.
func TestMasterColumnSharedAcrossVersions(t *testing.T) {
	sh, ie := masterFixture(t)
	g1, err := sh.NewGrounding(ie, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := sh.NewGrounding(ie, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g3, err := g2.Extend(model.MustTuple(ie.Schema(), model.S("b"), model.S("y"), model.I(2)))
	if err != nil {
		t.Fatal(err)
	}
	c1 := g1.MasterColumn(0)
	for i, g := range []*chase.Grounding{g2, g3} {
		if c := g.MasterColumn(0); &c[0] != &c1[0] {
			t.Errorf("grounding %d ranked its own copy of column a", i+2)
		}
	}
	if got := sh.RankedColumns(); fmt.Sprint(got) != "[0]" {
		t.Errorf("ranked columns = %v, want [0]", got)
	}
}

// TestMasterColumnsRankedOnFirstSearch: building the Shared, grounding
// and deducing rank nothing; a search ranks exactly the columns of
// the null attributes it builds a list for from the active domain —
// not those a Domains entry fixes, nor attributes the master lacks.
func TestMasterColumnsRankedOnFirstSearch(t *testing.T) {
	cfg := gen.MedConfig()
	cfg.NumEntities = 60
	ds := gen.Generate(cfg)
	sh, err := chase.NewShared(ds.Schema, ds.Master, ds.Rules)
	if err != nil {
		t.Fatal(err)
	}
	// Pick an entity whose target leaves at least two attributes with
	// a master column null: one gets a Domains entry, the rest are
	// read.
	var g *chase.Grounding
	var te *model.Tuple
	var read []int
	var fixed string
	for _, e := range ds.Entities {
		ge, err := sh.NewGrounding(e.Instance, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := ge.Run(nil)
		if g != nil || !res.CR || res.Complete() {
			continue
		}
		var covered []int
		for _, a := range res.Target.NullAttrs() {
			if ds.Master.Schema().Has(ds.Schema.Attr(a)) {
				covered = append(covered, a)
			}
		}
		if len(covered) >= 2 && len(covered) < len(res.Target.NullAttrs()) {
			g, te = ge, res.Target
			fixed, read = ds.Schema.Attr(covered[0]), covered[1:]
		}
	}
	if g == nil {
		t.Fatal("no entity leaves two master attributes and a master-less one null")
	}
	if got := sh.RankedColumns(); len(got) != 0 {
		t.Fatalf("columns %v ranked before any search", got)
	}
	pref := topk.Preference{K: 2, Domains: map[string][]model.Value{fixed: {model.S("v")}}}
	if _, _, err := topk.TopKCT(g, te, pref); err != nil {
		t.Fatal(err)
	}
	if got := sh.RankedColumns(); fmt.Sprint(got) != fmt.Sprint(read) {
		t.Errorf("ranked columns = %v, want the searched ones %v", got, read)
	}
}

// TestMasterColumnConcurrentFirstTouch: goroutines racing to rank the
// same column through fresh groundings all read one ranking (run it
// under -race).
func TestMasterColumnConcurrentFirstTouch(t *testing.T) {
	sh, ie := masterFixture(t)
	const n = 8
	cols := make([][]chase.MasterValue, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := sh.NewGrounding(ie, chase.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			cols[i] = g.MasterColumn(0)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if len(cols[i]) == 0 || &cols[i][0] != &cols[0][0] || fmt.Sprint(cols[i]) != fmt.Sprint(cols[0]) {
			t.Fatalf("goroutine %d read %v, goroutine 0 read %v", i, cols[i], cols[0])
		}
	}
}

// TestNoMasterNoColumns: without a master relation no attribute has a
// column.
func TestNoMasterNoColumns(t *testing.T) {
	_, ie := masterFixture(t)
	rs, err := rule.NewSet(ie.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Rules: rs}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < ie.Schema().Arity(); a++ {
		if c := g.MasterColumn(a); c != nil {
			t.Errorf("attribute %d has a column %v without master data", a, c)
		}
	}
}

// TestDistinctValues checks the instance-side accessors against a
// direct count over Ie, for fresh groundings and Extend versions: one
// entry per Norm class in ID order, carrying its first occurrence,
// its ID, its count and its first tuple index; Count agrees, and is 0
// for an ID Ie does not carry.
func TestDistinctValues(t *testing.T) {
	cfg := gen.MedConfig()
	cfg.NumEntities = 40
	ds := gen.Generate(cfg)
	sh, err := chase.NewShared(ds.Schema, ds.Master, ds.Rules)
	if err != nil {
		t.Fatal(err)
	}
	absent, _ := sh.Dict().Lookup(model.Bottom) // a base value no entity carries
	for _, e := range ds.Entities {
		g, err := sh.NewGrounding(model.NewEntityInstance(ds.Schema), chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		versions := []*chase.Grounding{g}
		for _, tu := range e.Instance.Tuples() {
			if g, err = g.Extend(tu); err != nil {
				t.Fatal(err)
			}
			versions = append(versions, g)
		}
		fresh, err := sh.NewGrounding(e.Instance, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range append(versions, fresh) {
			checkDistinct(t, g, absent)
		}
	}
}

func checkDistinct(t *testing.T, g *chase.Grounding, absent uint32) {
	t.Helper()
	ie := g.Instance()
	for a := 0; a < ie.Schema().Arity(); a++ {
		type class struct {
			v            model.Value
			count, first int
		}
		want := map[string]*class{}
		for i, tu := range ie.Tuples() {
			if v := tu.At(a); !v.IsNull() {
				if c, ok := want[v.Key()]; ok {
					c.count++
				} else {
					want[v.Key()] = &class{v: v, count: 1, first: i}
				}
			}
		}
		if n := g.NumDistinct(a); n != len(want) {
			t.Fatalf("attr %d: %d distinct values, want %d", a, n, len(want))
		}
		prev := model.NullID
		for k := 0; k < g.NumDistinct(a); k++ {
			v, id, count, first := g.Distinct(a, k)
			c := want[v.Key()]
			if c == nil || v.Kind() != c.v.Kind() || v.String() != c.v.String() ||
				count != c.count || first != c.first {
				t.Fatalf("attr %d entry %d = %s %q ×%d first %d, want %+v", a, k, v.Kind(), v, count, first, c)
			}
			if lid, ok := g.Dict().Lookup(v); !ok || lid != id || id <= prev {
				t.Fatalf("attr %d entry %d: ID %d (lookup %d), previous %d", a, k, id, lid, prev)
			}
			if g.Count(a, id) != count {
				t.Fatalf("attr %d: Count(%d) = %d, want %d", a, id, g.Count(a, id), count)
			}
			prev = id
		}
		if g.Count(a, absent) != 0 {
			t.Fatalf("attr %d: an absent value counts %d", a, g.Count(a, absent))
		}
	}
}
