package analyzers_test

import (
	"strings"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/analyzers"
)

func TestGroundingmut(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.Groundingmut,
		"repro/internal/chase", "repro/internal/model", "groundingmut")
}

func TestLockscope(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.Lockscope, "lockscope")
}

func TestAtomicptr(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.Atomicptr, "atomicptr")
}

func TestPoolescape(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.Poolescape, "poolescape")
}

func TestLockbalance(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.Lockbalance, "lockbalance")
}

// TestRegistry pins the registry's shape: stable order, unique
// lower-case names, docs with a summary line — what -list prints and
// check-docs.sh diffs against DESIGN.md.
func TestRegistry(t *testing.T) {
	all := analyzers.All()
	if len(all) < 4 {
		t.Fatalf("registry has %d analyzers, want at least 4", len(all))
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if a.Name == "" || a.Name != strings.ToLower(a.Name) || strings.ContainsAny(a.Name, " \t") {
			t.Errorf("analyzer name %q must be non-empty lower-case with no spaces", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q must have Doc and Run", a.Name)
		}
	}
}
