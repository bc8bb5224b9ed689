// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 7), plus micro-benchmarks for the core
// operations. Each BenchmarkFig*/BenchmarkTable* iteration executes the
// corresponding experiment at reduced (Quick) scale so the whole suite
// runs in minutes; `go run ./cmd/experiments` runs the full-scale
// versions and prints the tables.
package repro_test

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/chase"
	"repro/internal/csvio"
	"repro/internal/er"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/paperdata"
	"repro/internal/pipeline"
	"repro/internal/rule"
	"repro/internal/topk"
	"repro/internal/wal"
)

var (
	suiteOnce sync.Once
	suite     *bench.Suite
)

func quickSuite() *bench.Suite {
	suiteOnce.Do(func() { suite = bench.NewSuite(bench.Quick()) })
	return suite
}

func runReport(b *testing.B, f func() (*bench.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := f(); err != nil {
			b.Fatal(err)
		}
	}
}

// Exp-1: effectiveness of IsCR (Fig 6(a), 6(e)).
func BenchmarkFig6a_IsCRComplete(b *testing.B)   { runReport(b, quickSuite().Fig6a) }
func BenchmarkFig6e_IsCRAttributes(b *testing.B) { runReport(b, quickSuite().Fig6e) }

// Exp-2: top-k candidate quality (Fig 6(b), 6(f), 6(c), 6(g)).
func BenchmarkFig6b_MedVaryK(b *testing.B)  { runReport(b, quickSuite().Fig6b) }
func BenchmarkFig6f_CFPVaryK(b *testing.B)  { runReport(b, quickSuite().Fig6f) }
func BenchmarkFig6c_MedVaryIm(b *testing.B) { runReport(b, quickSuite().Fig6c) }
func BenchmarkFig6g_CFPVaryIm(b *testing.B) { runReport(b, quickSuite().Fig6g) }

// Exp-3: user interaction rounds (Fig 6(d), 6(h)).
func BenchmarkFig6d_MedInteraction(b *testing.B) { runReport(b, quickSuite().Fig6d) }
func BenchmarkFig6h_CFPInteraction(b *testing.B) { runReport(b, quickSuite().Fig6h) }

// Exp-4: efficiency (Fig 6(i)–6(l), 7(a), 7(b)).
func BenchmarkFig6i_SynVaryIe(b *testing.B)    { runReport(b, quickSuite().Fig6i) }
func BenchmarkFig6j_SynVarySigma(b *testing.B) { runReport(b, quickSuite().Fig6j) }
func BenchmarkFig6k_SynVaryIm(b *testing.B)    { runReport(b, quickSuite().Fig6k) }
func BenchmarkFig6l_SynVaryK(b *testing.B)     { runReport(b, quickSuite().Fig6l) }
func BenchmarkFig7a_MedVaryIe(b *testing.B)    { runReport(b, quickSuite().Fig7a) }
func BenchmarkFig7b_MedVaryIm(b *testing.B)    { runReport(b, quickSuite().Fig7b) }

// Exp-5: truth discovery (Table 4 and the CFP comparison).
func BenchmarkTable4_Rest(b *testing.B) { runReport(b, quickSuite().Table4) }
func BenchmarkExp5_CFP(b *testing.B)    { runReport(b, quickSuite().Exp5CFP) }

// --- micro-benchmarks for the core operations ---

func paperGrounding(b *testing.B) *chase.Grounding {
	b.Helper()
	ie := paperdata.Stat()
	im := paperdata.NBA()
	rs, err := rule.NewSet(ie.Schema(), im.Schema(), paperdata.Rules()...)
	if err != nil {
		b.Fatal(err)
	}
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Im: im, Rules: rs}, chase.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkIsCR measures one chase run on the paper's running example
// (the §5 claim: about 10ms per entity at Med scale; far less here).
func BenchmarkIsCR(b *testing.B) {
	g := paperGrounding(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := g.Run(nil); !res.CR {
			b.Fatal(res.Conflict)
		}
	}
}

// BenchmarkInstantiation measures the per-entity grounding
// preprocessing on a prebuilt schema-level groundwork (rule validation,
// form-(1) compilation and the form-(2) index are built once, outside
// the loop). The paper leg grounds the 7-tuple running example; the Med
// leg grounds gen.Med entities in turn, as relacc batch does on the
// ingest workload — one Shared for the relation, every row resolved
// against its base dictionary the way csvio decodes it, the entity's
// other values interned by the grounding — so ns/op is the mean cost of
// one Med entity.
func BenchmarkInstantiation(b *testing.B) {
	b.Run("paper", func(b *testing.B) {
		ie := paperdata.Stat()
		im := paperdata.NBA()
		rs, err := rule.NewSet(ie.Schema(), im.Schema(), paperdata.Rules()...)
		if err != nil {
			b.Fatal(err)
		}
		sh, err := chase.NewShared(ie.Schema(), im, rs)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sh.NewGrounding(ie, chase.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Med", func(b *testing.B) {
		cfg := gen.MedConfig()
		cfg.NumEntities = 300
		ds := gen.Generate(cfg)
		sh, err := chase.NewShared(ds.Entities[0].Instance.Schema(), ds.Master, ds.Rules)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range ds.Entities {
			for _, t := range e.Instance.Tuples() {
				t.Resolve(sh.Dict())
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sh.NewGrounding(ds.Entities[i%len(ds.Entities)].Instance, chase.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// syn900 holds the Fig 6(i) mid-point workload (‖Ie‖ = 900, ‖Im‖ = 300,
// ‖Σ‖ = 60) shared by the check and top-k benchmarks, plus a
// complete candidate that passes the check. Two groundings are built
// over the same instance: the default one (verdict cache on — what a
// server runs) and a cache-disabled twin, so the benchmarks that track
// the raw chase cost (BenchmarkCheckPooled, BenchmarkTopKCT900)
// keep measuring the chase rather than silently degrading into
// hit-path benchmarks; BenchmarkCheckCached measures the hit path
// deliberately.
var (
	syn900Once  sync.Once
	syn900G     *chase.Grounding // verdict cache on (the default)
	syn900Plain *chase.Grounding // DisableVerdictCache: the raw chase
	syn900Te    *model.Tuple
	syn900Cand  *model.Tuple
)

func syn900(b *testing.B) (*chase.Grounding, *model.Tuple, *model.Tuple) {
	b.Helper()
	syn900Once.Do(func() {
		cfg := gen.SynDefault()
		cfg.Tuples = 900
		cfg.Im = 300
		cfg.Rules = 60
		ds := gen.GenerateSyn(cfg)
		spec := chase.Spec{Ie: ds.Entities[0].Instance, Im: ds.Master, Rules: ds.Rules}
		g, err := chase.NewGrounding(spec, chase.Options{})
		if err != nil {
			panic(err)
		}
		syn900G = g
		if syn900Plain, err = chase.NewGrounding(spec, chase.Options{DisableVerdictCache: true}); err != nil {
			panic(err)
		}
		res := g.Run(nil)
		if !res.CR {
			panic(res.Conflict)
		}
		syn900Te = res.Target
		syn900Cand = res.Target
		if !res.Target.Complete() {
			cands, _, err := topk.TopKCT(g, res.Target, topk.Preference{K: 1})
			if err != nil {
				panic(err)
			}
			if len(cands) > 0 {
				syn900Cand = cands[0].Tuple
			}
		}
	})
	return syn900G, syn900Te, syn900Cand
}

// syn900Uncached returns the cache-disabled twin of the syn900
// grounding (same instance, same master, same rules).
func syn900Uncached(b *testing.B) (*chase.Grounding, *model.Tuple, *model.Tuple) {
	b.Helper()
	syn900(b)
	return syn900Plain, syn900Te, syn900Cand
}

// BenchmarkCheckPooled measures the candidate-target check of §6.1 at
// ‖Ie‖ = 900 through Grounding.Check, which lends each call one of the
// version's idle checkers: buffers are reused and the base state is
// restored through dirty-row tracking, so steady-state checks allocate
// nothing. It runs on the cache-disabled grounding — with the verdict
// cache on, every iteration after the first would be a hit and this
// benchmark would stop measuring the chase (that hit path is
// BenchmarkCheckCached).
func BenchmarkCheckPooled(b *testing.B) {
	g, _, cand := syn900Uncached(b)
	g.Check(cand) // warm the version's idle checker
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Check(cand)
	}
}

// BenchmarkCheckCached measures the repeated check a server actually
// performs: the verdict cache (on by default) answers every iteration
// after the first from the packed ID-row key — pack, one map lookup,
// no chase. Compare against BenchmarkCheckPooled for the per-check win
// (BENCH_pr7.json records both).
func BenchmarkCheckCached(b *testing.B) {
	g, _, cand := syn900(b)
	g.Check(cand) // populate the cache: every timed check is a hit
	before := g.VerdictCacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Check(cand)
	}
	b.StopTimer()
	if after := g.VerdictCacheStats(); after.Hits-before.Hits < int64(b.N) {
		b.Fatalf("timed checks were not cache hits: %+v -> %+v over %d iterations", before, after, b.N)
	}
}

// BenchmarkColdCheck measures the cold start of a check at ‖Ie‖ = 900
// through Grounding.Run: a fresh engine (a deep clone of the base order
// matrices) plus one full chase, with no held buffers and no verdict
// cache to hide behind. Compare BenchmarkCheckPooled for the
// steady-state cost of a held checker.
func BenchmarkColdCheck(b *testing.B) {
	g, _, cand := syn900Uncached(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Run(cand)
	}
}

// BenchmarkOrderAdd measures the closure-restoring pair insertion on
// one order matrix: each iteration resets a tracked set to empty
// and derives the full ascending chain 0 ⪯ 1 ⪯ ... ⪯ n-1 one Add at a
// time — the worst-case insertion pattern, deriving O(n²) pairs through
// the predecessor-propagation path.
func BenchmarkOrderAdd(b *testing.B) {
	for _, n := range []int{129, 900} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			base := order.NewSet(1, n)
			r := base.CloneTracked()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.ResetFrom(base)
				for j := 0; j+1 < n; j++ {
					r.Add(0, j, j+1)
				}
			}
		})
	}
}

// BenchmarkOrderMax measures the λ scan on a full clique — the shape
// with no early exit, where every row must be intersected.
func BenchmarkOrderMax(b *testing.B) {
	for _, n := range []int{129, 900} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := order.NewSet(1, n)
			members := make([]uint32, n)
			for i := range members {
				members[i] = uint32(i)
			}
			r.SetClique32(0, members)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r.Max(0) != 0 {
					b.Fatal("clique lost its maximum")
				}
			}
		})
	}
}

// BenchmarkCheckPaper measures one check on the paper's running example
// (small instance; grounding-time dominated workloads look different —
// see BenchmarkColdCheck for the ‖Ie‖ = 900 hot path).
func BenchmarkCheckPaper(b *testing.B) {
	g := paperGrounding(b)
	cand := paperdata.Target()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.Run(cand).CR {
			b.Fatal("true target rejected")
		}
	}
}

// BenchmarkTopKCT900 measures one TopKCT search on the Fig 6(i)
// workload (‖Ie‖ = 900) at k = 15. Cache-disabled grounding, for the
// same reason as BenchmarkCheckPooled: with the cache on, iterations
// after the first verify every candidate by lookup and the benchmark
// would stop measuring the checks.
func BenchmarkTopKCT900(b *testing.B) {
	g, te, _ := syn900Uncached(b)
	pref := topk.Preference{K: 15}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := topk.TopKCT(g, te, pref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalAdd compares the two ways a grounded entity can
// absorb one new evidence tuple: the delta path (Grounding.Extend —
// delta Instantiation plus monotone resumption of the base chase) and
// the full rebuild (Shared.NewGrounding over the grown instance; the
// Shared is prebuilt for both, so the comparison isolates per-instance
// work). The delta path must show strictly lower ns/op and allocs/op —
// it grounds O(‖Σ‖·n) new pairs instead of O(‖Σ‖·n²) — and this
// benchmark tracks that win over time at the Fig 6(i) scales. Two more
// legs time Extend on other delta shapes: Ie=300/extend64 absorbs the
// last 64 tuples in one Extend, whose new tuples are axiom-seeded among
// themselves as a block, and Med/extend absorbs the last tuple of each
// gen.Med entity in turn (rows resolved against the Shared's base, as
// csvio decodes them) — the one-tuple append relaccd runs per request.
// GroundSteps/Ie=300/extend is a one-tuple Extend under rules that
// ground steps (groundStepsPrefix), the only leg whose chase walks the
// trigger layers.
func BenchmarkIncrementalAdd(b *testing.B) {
	for _, size := range []int{300, 900} {
		cfg := gen.SynDefault()
		cfg.Tuples = size
		cfg.Im = 300
		cfg.Rules = 60
		ds := gen.GenerateSyn(cfg)
		full := ds.Entities[0].Instance
		sh, err := chase.NewShared(full.Schema(), ds.Master, ds.Rules)
		if err != nil {
			b.Fatal(err)
		}
		prefix := func(d int) (*chase.Grounding, []*model.Tuple) {
			base := model.NewEntityInstance(full.Schema())
			for i := 0; i < full.Size()-d; i++ {
				base.MustAdd(full.Tuple(i))
			}
			g, err := sh.NewGrounding(base, chase.Options{})
			if err != nil {
				b.Fatal(err)
			}
			return g, full.Tuples()[full.Size()-d:]
		}
		g, last := prefix(1)
		b.Run(fmt.Sprintf("Ie=%d/extend", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.Extend(last...); err != nil {
					b.Fatal(err)
				}
			}
		})
		if size == 300 {
			g64, last64 := prefix(64)
			b.Run("Ie=300/extend64", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := g64.Extend(last64...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("Ie=%d/rebuild", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sh.NewGrounding(full, chase.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("Med/extend", func(b *testing.B) {
		cfg := gen.MedConfig()
		cfg.NumEntities = 300
		ds := gen.Generate(cfg)
		sh, err := chase.NewShared(ds.Schema, ds.Master, ds.Rules)
		if err != nil {
			b.Fatal(err)
		}
		type delta struct {
			g    *chase.Grounding
			last *model.Tuple
		}
		var deltas []delta
		for _, e := range ds.Entities {
			n := e.Instance.Size()
			if n < 2 {
				continue
			}
			base := model.NewEntityInstance(ds.Schema)
			for i, t := range e.Instance.Tuples() {
				t.Resolve(sh.Dict())
				if i < n-1 {
					base.MustAdd(t)
				}
			}
			g, err := sh.NewGrounding(base, chase.Options{})
			if err != nil {
				b.Fatal(err)
			}
			deltas = append(deltas, delta{g, e.Instance.Tuple(n - 1)})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := deltas[i%len(deltas)]
			if _, err := d.g.Extend(d.last); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GroundSteps/Ie=300/extend", func(b *testing.B) {
		g, last := groundStepsPrefix(b, 300)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.Extend(last); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// groundStepsPrefix grounds the first n-1 tuples of an entity whose
// rules materialise ground steps, which no Syn or Med rule does (they
// compile to correlation triggers): TestExtendLongChain's three rules,
// where "both" waits on two order facts per pair. Attribute c rises
// with a, so the base chase stays Church-Rosser. It returns the
// grounding and the n-th tuple, for a one-tuple Extend that registers
// trigger layers and resumes the chase over them.
func groundStepsPrefix(b *testing.B, n int) (*chase.Grounding, *model.Tuple) {
	b.Helper()
	s := model.MustSchema("r", "a", "b", "c")
	rules := rule.MustSet(s, nil,
		&rule.Form1{RuleName: "curA",
			LHS: []rule.Pred{rule.Cmp(rule.T1("a"), rule.Lt, rule.T2("a"))}, RHS: "a"},
		&rule.Form1{RuleName: "both",
			LHS: []rule.Pred{rule.Prec("a"), rule.Prec("b")}, RHS: "c"},
		&rule.Form1{RuleName: "curB",
			LHS: []rule.Pred{rule.Cmp(rule.T1("b"), rule.Lt, rule.T2("b"))}, RHS: "b"},
	)
	rng := rand.New(rand.NewSource(11))
	ie := model.NewEntityInstance(s)
	var last *model.Tuple
	for i := 0; i < n; i++ {
		last = model.MustTuple(s, model.I(int64(i)), model.I(int64(rng.Intn(40))), model.I(int64(i)))
		if i < n-1 {
			ie.MustAdd(last)
		}
	}
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Rules: rules}, chase.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if res := g.Run(nil); !res.CR {
		b.Fatalf("the base chase is not Church-Rosser: %s", res.Conflict)
	}
	return g, last
}

// BenchmarkUpdaterApply measures one Apply batch over 32 disjoint-key
// entities (create + deduce + top-3 search each) on the sharded
// live-entity store, at one worker and at GOMAXPROCS workers. Since
// PR 5 no global lock is held across deduction, so the batch scales
// with the workers instead of serialising (on this 1-core container
// the two timings coincide; the regression tests in
// internal/pipeline/updater_shard_test.go enforce the non-blocking
// behaviour itself, and the equivalence suites pin that worker count
// never changes any result).
func BenchmarkUpdaterApply(b *testing.B) {
	const entities = 32
	cfg := gen.MedConfig()
	cfg.NumEntities = entities
	ds := gen.Generate(cfg)
	schema := ds.Entities[0].Instance.Schema()
	shared, err := chase.NewShared(schema, ds.Master, ds.Rules)
	if err != nil {
		b.Fatal(err)
	}
	ups := make([]pipeline.Update, entities)
	for i, e := range ds.Entities {
		ups[i] = pipeline.Update{Key: fmt.Sprintf("e%02d", i), Tuples: e.Instance.Tuples()}
	}
	par := runtime.GOMAXPROCS(0)
	if par < 2 {
		par = 2 // keep the two legs distinct even on a 1-core machine
	}
	for _, workers := range []int{1, par} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pcfg := pipeline.Config{Workers: workers, TopK: 3,
				Pref: topk.Preference{MaxChecks: 2000}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				u := pipeline.NewUpdaterShared(shared, pcfg)
				if _, sum, err := u.Apply(ups); err != nil || sum.Errors > 0 {
					b.Fatalf("apply: err=%v errors=%d", err, sum.Errors)
				}
			}
		})
	}
}

// BenchmarkTopKWarmQuery measures the serving path's repeated-query
// cost, cold versus warm (the PR 7 headline number; BENCH_pr7.json and
// EXPERIMENTS.md record the ratio). Both legs issue the same
// Updater.Query against one settled Med entity: the cold leg runs with
// both cache layers disabled, so every query re-runs the full deduce →
// top-3 search; the warm leg runs the default configuration, where the
// settled-target memo answers every query after the first without
// touching the kernel. The results are byte-identical (enforced by
// updater_cache_test.go) — only the cost differs.
func BenchmarkTopKWarmQuery(b *testing.B) {
	cfg := gen.MedConfig()
	cfg.NumEntities = 4
	ds := gen.Generate(cfg)
	schema := ds.Entities[0].Instance.Schema()
	mk := func(disable bool) *pipeline.Updater {
		pcfg := pipeline.Config{Master: ds.Master, Rules: ds.Rules, TopK: 3,
			Pref:                topk.Preference{MaxChecks: 2000},
			DisableSettledCache: disable,
			Options:             chase.Options{DisableVerdictCache: disable}}
		u, err := pipeline.NewUpdater(schema, pcfg)
		if err != nil {
			b.Fatal(err)
		}
		ups := make([]pipeline.Update, len(ds.Entities))
		for i, e := range ds.Entities {
			ups[i] = pipeline.Update{Key: fmt.Sprintf("e%02d", i), Tuples: e.Instance.Tuples()}
		}
		if _, sum, err := u.Apply(ups); err != nil || sum.Errors > 0 {
			b.Fatalf("apply: err=%v errors=%d", err, sum.Errors)
		}
		return u
	}
	// Prefer an entity whose target stays incomplete, so the cold leg
	// pays for the candidate search too — the realistic repeated-query
	// shape. Falls back to e00 when every target settles completely.
	key := "e00"
	probe := mk(true)
	for i := range ds.Entities {
		k := fmt.Sprintf("e%02d", i)
		if r, ok := probe.Query(k, 3, pipeline.AlgoTopKCT); ok && r.Err == nil &&
			r.Deduction.CR && !r.Deduction.Target.Complete() {
			key = k
			break
		}
	}
	for _, leg := range []struct {
		name    string
		disable bool
	}{{"cold", true}, {"warm", false}} {
		b.Run(leg.name, func(b *testing.B) {
			u := mk(leg.disable)
			if _, ok := u.Query(key, 3, pipeline.AlgoTopKCT); !ok {
				b.Fatalf("key %s unknown", key)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := u.Query(key, 3, pipeline.AlgoTopKCT); !ok {
					b.Fatalf("key %s unknown", key)
				}
			}
		})
	}
}

// BenchmarkTopKCold measures one cold top-k search at serving scale:
// full gen.Med (2,700 entities, ~1,800 master rows — the serve-query
// shape), the Shared and the groundings of the first 200 entities
// whose deduced target is incomplete built outside the loop, the
// verdict cache off, TopKCT round-robin over those entities at k=3
// and k=5. One warm-up pass before the timer leaves the dictionary
// and the ranked master columns as a serving process holds them after
// its first queries; ns/op is then the search's setup plus its
// chase-based checks.
func BenchmarkTopKCold(b *testing.B) {
	ds := gen.Generate(gen.MedConfig())
	sh, err := chase.NewShared(ds.Schema, ds.Master, ds.Rules)
	if err != nil {
		b.Fatal(err)
	}
	type search struct {
		g  *chase.Grounding
		te *model.Tuple
	}
	var searches []search
	for _, e := range ds.Entities {
		if len(searches) == 200 {
			break
		}
		g, err := sh.NewGrounding(e.Instance, chase.Options{DisableVerdictCache: true})
		if err != nil {
			b.Fatal(err)
		}
		if res := g.Run(nil); res.CR && !res.Complete() {
			searches = append(searches, search{g, res.Target})
		}
	}
	warm := topk.Preference{K: 3, MaxChecks: 2000}
	for _, s := range searches {
		if _, _, err := topk.TopKCT(s.g, s.te, warm); err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range []int{3, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			pref := topk.Preference{K: k, MaxChecks: 2000}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := searches[i%len(searches)]
				if _, _, err := topk.TopKCT(s.g, s.te, pref); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// synGrounding builds a mid-size synthetic grounding shared by the
// top-k micro-benchmarks.
var (
	synOnce sync.Once
	synG    *chase.Grounding
)

func synGrounding(b *testing.B) *chase.Grounding {
	b.Helper()
	synOnce.Do(func() {
		cfg := gen.SynDefault()
		cfg.Tuples = 300
		cfg.Im = 100
		ds := gen.GenerateSyn(cfg)
		g, err := chase.NewGrounding(chase.Spec{
			Ie: ds.Entities[0].Instance, Im: ds.Master, Rules: ds.Rules}, chase.Options{})
		if err != nil {
			b.Fatal(err)
		}
		synG = g
	})
	return synG
}

// BenchmarkTopKCT_Syn measures TopKCT at k=10 on a 300-tuple instance.
func BenchmarkTopKCT_Syn(b *testing.B) {
	g := synGrounding(b)
	te := g.Run(nil).Target
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := topk.TopKCT(g, te, topk.Preference{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopKCTh_Syn measures the heuristic on the same instance.
func BenchmarkTopKCTh_Syn(b *testing.B) {
	g := synGrounding(b)
	te := g.Run(nil).Target
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := topk.TopKCTh(g, te, topk.Preference{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankJoinCT_Syn measures the rank-join baseline on the same
// instance.
func BenchmarkRankJoinCT_Syn(b *testing.B) {
	g := synGrounding(b)
	te := g.Run(nil).Target
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := topk.RankJoinCT(g, te, topk.Preference{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend measures the durable path one acknowledged batch
// pays before it touches an entity: encode, CRC, append — and, on the
// fsync=always leg, the group-committed fsync that makes the ack mean
// something. The never leg isolates the encoding cost.
func BenchmarkWALAppend(b *testing.B) {
	schema := model.MustSchema("bench", "id", "league", "rnds", "jersey")
	tuples := make([]*model.Tuple, 8)
	for i := range tuples {
		tuples[i] = model.MustTuple(schema,
			model.S("m1"), model.S("east"), model.I(int64(30+i)), model.I(int64(i)))
	}
	ups := []pipeline.Update{{Key: "m1", Tuples: tuples}}
	for _, pol := range []wal.SyncPolicy{wal.SyncNever, wal.SyncAlways} {
		b.Run("fsync="+pol.String(), func(b *testing.B) {
			st, err := wal.Open(b.TempDir(), schema, wal.Options{Fsync: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.LogApply(ups); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSynthCSV lazily generates a run-length CSV relation (header
// "id,ts,val", run consecutive rows per entity key) — the generator
// itself holds one row, so the streaming leg's memory numbers measure
// the ingest chain, not the fixture. A copy of the generator the
// memory-guard test uses (internal/ingest/memguard_test.go); test
// helpers do not export across packages.
type benchSynthCSV struct {
	rows, run int
	i         int
	buf       []byte
	header    bool
}

func (s *benchSynthCSV) Read(p []byte) (int, error) {
	if !s.header {
		s.buf = append(s.buf, "id,ts,val\n"...)
		s.header = true
	}
	for len(s.buf) < len(p) && s.i < s.rows {
		s.buf = fmt.Appendf(s.buf, "e%08d,%d,v%d\n", s.i/s.run, s.i%s.run, s.i%97)
		s.i++
	}
	if len(s.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.buf)
	s.buf = s.buf[:copy(s.buf, s.buf[n:])]
	return n, nil
}

// benchPeakHeap samples HeapAlloc while f runs and returns the highest
// reading observed.
func benchPeakHeap(f func()) uint64 {
	runtime.GC()
	stop := make(chan struct{})
	var peak uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	f()
	close(stop)
	wg.Wait()
	return peak
}

// BenchmarkStreamIngest compares the two ingest paths end to end on a
// synthetic 200k-row relation with a trivial rule set (this measures
// ingest, not chase depth): the materialized ReadRelation → GroupBy →
// Run chain against the streaming TupleIterator → StreamGroupBy →
// StreamFrom chain at window 64. Beyond ns/op it reports the two
// numbers PR 9 is about: rows/s throughput and peak-bytes, the highest
// sampled live heap during an ingest — flat in the relation's length
// for the streaming leg, linear for the materialized one
// (BENCH_pr9.json records both; the hard acceptance bound lives in
// internal/ingest's TestStreamIngestMemoryGuard).
func BenchmarkStreamIngest(b *testing.B) {
	const rows, run = 200_000, 100
	schema := model.MustSchema("synth", "id", "ts", "val")
	rules, err := rule.NewSet(schema, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.Config{Rules: rules, Workers: 2}
	wantEntities := (rows + run - 1) / run
	legs := []struct {
		name string
		run  func(r io.Reader) (int, error)
	}{
		{"materialized", func(r io.Reader) (int, error) {
			s, tuples, err := csvio.ReadRelation(r, "synth")
			if err != nil {
				return 0, err
			}
			entities, err := er.GroupBy(tuples, s, "id")
			if err != nil {
				return 0, err
			}
			results, _, err := pipeline.Run(entities, cfg)
			return len(results), err
		}},
		{"streaming", func(r io.Reader) (int, error) {
			n := 0
			_, err := ingest.StreamCSV(r, "synth",
				ingest.Options{By: "id", Window: er.Window{MaxEntities: 64}}, cfg,
				func(pipeline.Result) error { n++; return nil })
			return n, err
		}},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			var peak uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := benchPeakHeap(func() {
					n, err := leg.run(&benchSynthCSV{rows: rows, run: run})
					if err != nil || n != wantEntities {
						b.Fatalf("ingest: %d entities (want %d), err %v", n, wantEntities, err)
					}
				})
				if p > peak {
					peak = p
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(float64(peak), "peak-bytes")
		})
	}
}

// BenchmarkRecoveryReplay measures a cold boot over a log-only store:
// open (scan + torn-tail check) plus replaying every batch through a
// fresh updater — the time a crashed daemon takes to start answering
// again, at Med scale with three interleaved evidence waves.
func BenchmarkRecoveryReplay(b *testing.B) {
	cfg := gen.MedConfig()
	cfg.NumEntities = 8
	ds := gen.Generate(cfg)
	pcfg := pipeline.Config{Master: ds.Master, Rules: ds.Rules, Workers: 4,
		Pref: topk.Preference{MaxChecks: 2000}}
	dir := b.TempDir()
	u, err := pipeline.NewUpdater(ds.Schema, pcfg)
	if err != nil {
		b.Fatal(err)
	}
	st, err := wal.Open(dir, ds.Schema, wal.Options{Fsync: wal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Recover(u); err != nil {
		b.Fatal(err)
	}
	u.AttachPersister(st)
	var waves [3][]pipeline.Update
	for i, e := range ds.Entities {
		key := fmt.Sprintf("e%02d", i)
		tuples := e.Instance.Tuples()
		cut1, cut2 := 1, 1+(len(tuples)-1)/2
		waves[0] = append(waves[0], pipeline.Update{Key: key, Tuples: tuples[:cut1]})
		if cut1 < cut2 {
			waves[1] = append(waves[1], pipeline.Update{Key: key, Tuples: tuples[cut1:cut2]})
		}
		if cut2 < len(tuples) {
			waves[2] = append(waves[2], pipeline.Update{Key: key, Tuples: tuples[cut2:]})
		}
	}
	for _, ups := range waves {
		if _, sum, err := u.Apply(ups); err != nil || sum.Errors > 0 {
			b.Fatalf("apply: err=%v errors=%d", err, sum.Errors)
		}
	}
	st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ru, err := pipeline.NewUpdater(ds.Schema, pcfg)
		if err != nil {
			b.Fatal(err)
		}
		st2, err := wal.Open(dir, ds.Schema, wal.Options{Fsync: wal.SyncNever})
		if err != nil {
			b.Fatal(err)
		}
		if rs, err := st2.Recover(ru); err != nil || rs.Batches != 3 {
			b.Fatalf("recover: %+v %v", rs, err)
		}
		st2.Close()
	}
}
