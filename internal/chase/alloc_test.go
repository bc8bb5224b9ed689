package chase_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/chase"
	"repro/internal/gen"
)

// TestGroundingAllocationBound bounds what one grounding allocates by
// the size of its order matrices: at the Fig 6(i) scales of
// BenchmarkIncrementalAdd (20 attributes, ‖Im‖ = 300, ‖Σ‖ = 60), one
// Shared.NewGrounding may allocate at most 8 × attrs·n²/8 bytes. The
// chase's pending work is kept as word masks in the matrices' shape, so
// however often a consequence is re-derived, no worklist can outgrow
// them.
func TestGroundingAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("grounds a 900-tuple entity")
	}
	for _, n := range []int{300, 900} {
		t.Run(fmt.Sprintf("Ie=%d", n), func(t *testing.T) {
			cfg := gen.SynDefault()
			cfg.Tuples, cfg.Im, cfg.Rules = n, 300, 60
			ds := gen.GenerateSyn(cfg)
			ie := ds.Entities[0].Instance
			sh, err := chase.NewShared(ie.Schema(), ds.Master, ds.Rules)
			if err != nil {
				t.Fatal(err)
			}
			matrices := uint64(ie.Schema().Arity()) * uint64(n) * uint64(n) / 8
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			g, err := sh.NewGrounding(ie, chase.Options{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("one grounding allocated %.2f MB, %.1f× its order matrices (%.2f MB)",
				float64(alloc)/1e6, float64(alloc)/float64(matrices), float64(matrices)/1e6)
			if alloc > 8*matrices {
				t.Fatalf("one grounding allocated %d bytes, more than 8 × its order matrices (%d bytes)",
					alloc, matrices)
			}
			runtime.KeepAlive(g)
		})
	}
}

// TestPooledCheckAllocFree holds the pooled check path to zero
// allocations: once a held Checker has run its first check, checking a
// candidate again — through the chase with the verdict cache off, or
// answered from the cache with it on — allocates nothing, on a Syn
// entity at ‖Ie‖ = 300 and on a gen.Med entity. So does
// Grounding.Check once the version holds an idle checker. The
// candidate is the entity's deduced target, which passes its own
// check.
func TestPooledCheckAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg := gen.SynDefault()
	cfg.Tuples, cfg.Im, cfg.Rules = 300, 300, 60
	syn := gen.GenerateSyn(cfg)
	med := gen.Generate(gen.MedConfig())
	for _, c := range []struct {
		name string
		ds   *gen.Dataset
	}{{"Syn/Ie=300", syn}, {"Med", med}} {
		ie := c.ds.Entities[0].Instance
		for _, e := range c.ds.Entities {
			if e.Instance.Size() > ie.Size() {
				ie = e.Instance
			}
		}
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cache=%v", c.name, cached), func(t *testing.T) {
				g, err := chase.NewGrounding(chase.Spec{Ie: ie, Im: c.ds.Master, Rules: c.ds.Rules},
					chase.Options{DisableVerdictCache: !cached})
				if err != nil {
					t.Fatal(err)
				}
				res := g.Run(nil)
				if !res.CR {
					t.Fatalf("entity is not Church-Rosser: %s", res.Conflict)
				}
				ck := g.NewChecker()
				if !ck.Check(res.Target) {
					t.Fatal("the deduced target fails its own check")
				}
				before := g.VerdictCacheStats()
				if n := testing.AllocsPerRun(50, func() { ck.Check(res.Target) }); n != 0 {
					t.Fatalf("a pooled check allocates %.1f times", n)
				}
				if n := testing.AllocsPerRun(50, func() { g.Check(res.Target) }); n != 0 {
					t.Fatalf("a Grounding.Check allocates %.1f times", n)
				}
				if hits := g.VerdictCacheStats().Hits - before.Hits; cached != (hits > 0) {
					t.Fatalf("verdict cache on = %v, but the checks made %d hits", cached, hits)
				}
			})
		}
	}
}

// instantiationAllocBound bounds the mean allocations of one Med
// Shared.NewGrounding. A grounding version takes its value indexes from
// one slab, its order matrices from one row slab and its λ counts and
// pending masks from one slab each, so the count does not grow with the
// schema's 30 attributes: 18 at the time of writing, where the
// per-attribute layout before made 360. One allocation per attribute
// more would cross the bound.
const instantiationAllocBound = 40

// TestInstantiationAllocBound grounds gen.Med entities in turn on one
// Shared, every row resolved against its base dictionary as csvio
// decodes it — the ingest shape of BenchmarkInstantiation/Med — and
// holds the mean allocations per grounding under
// instantiationAllocBound.
func TestInstantiationAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg := gen.MedConfig()
	cfg.NumEntities = 300
	ds := gen.Generate(cfg)
	sh, err := chase.NewShared(ds.Entities[0].Instance.Schema(), ds.Master, ds.Rules)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ds.Entities {
		for _, tu := range e.Instance.Tuples() {
			tu.Resolve(sh.Dict())
		}
	}
	k := 0
	n := testing.AllocsPerRun(3*len(ds.Entities), func() {
		if _, err := sh.NewGrounding(ds.Entities[k%len(ds.Entities)].Instance, chase.Options{}); err != nil {
			t.Fatal(err)
		}
		k++
	})
	t.Logf("%.1f allocations per Med grounding", n)
	if n > instantiationAllocBound {
		t.Fatalf("one Med grounding allocates %.1f times on average, bound %d", n, instantiationAllocBound)
	}
}
