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
