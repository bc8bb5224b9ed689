package chase

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/rule"
)

// FuzzVerdictKey pins the two properties the verdict cache's soundness
// rests on (ISSUE 7): distinct template rows never collide — packed
// keys are equal ONLY when the rows are attribute-wise Norm-equal —
// and equal-up-to-Norm rows always produce the same key (so a repeat
// check always hits). Inputs are '\x1f'-separated value-literal rows,
// parsed exactly like FuzzValueCanon's inputs and seeded from the same
// corner corpus (NaN folding, ±0, int/float class boundaries, quoted
// literals), because those are the values whose Norm classes are
// subtle. Both rows are grounded first, so every parsed value is
// interned: unknown values are the separately-tested UNCACHEABLE case
// (TestUncacheableTemplateStaysOut) precisely because the NoID
// sentinel would alias distinct unknowns.
func FuzzVerdictKey(f *testing.F) {
	lits := []string{
		"", "null", "NULL", "true", "false",
		"0", "-0", "0.0", "-0.0", "3", "3.0", "-17", "2.5",
		"NaN", "-NaN", "nan", "Inf", "-Inf", "+Inf", "1e300", "-1e-300",
		"9007199254740993",    // 2⁵³+1: int magnitude beyond float64 precision
		"9223372036854775807", // MaxInt64
		`"3"`, `"null"`, `""`, `"true"`, "x", "⊥", "a b", `"quo\"ted"`,
		"00", "0x10", "1_000", ".5", "5.", "1e", "--1",
	}
	for i, s := range lits {
		f.Add(s, lits[(i+1)%len(lits)])
		f.Add(s, s)
	}
	f.Add("3\x1f-0.0\x1fNaN\x1fx", "3.0\x1f0\x1fnan\x1fx")
	f.Add("null\x1f1\x1f2\x1f3", "1\x1fnull\x1f2\x1f3")
	f.Add("a\x1fbc", "ab\x1fc") // concatenation must not fool the packing

	const arity = 4
	schema := model.MustSchema("fz", "a", "b", "c", "d")
	parseRow := func(s string) []model.Value {
		row := make([]model.Value, arity)
		for i := range row {
			row[i] = model.NullValue()
		}
		for i, lit := range strings.Split(s, "\x1f") {
			if i >= arity {
				break
			}
			row[i] = model.Parse(lit)
		}
		return row
	}

	f.Fuzz(func(t *testing.T, s1, s2 string) {
		r1, r2 := parseRow(s1), parseRow(s2)
		t1 := model.MustTuple(schema, r1...)
		t2 := model.MustTuple(schema, r2...)
		// A grounding over both rows has every value they carry in its
		// overlay.
		ie := model.NewEntityInstance(schema)
		ie.MustAdd(t1.Clone())
		ie.MustAdd(t2.Clone())
		g, err := NewGrounding(Spec{Ie: ie, Rules: rule.MustSet(schema, nil)}, Options{})
		if err != nil {
			t.Fatal(err)
		}

		k1, ok1 := g.verdictKey(t1, nil)
		k2, ok2 := g.verdictKey(t2, nil)
		if !ok1 || !ok2 {
			t.Fatalf("fully interned rows reported uncacheable: %v %v", ok1, ok2)
		}
		if len(k1) != 4*arity || len(k2) != 4*arity {
			t.Fatalf("key lengths %d, %d; want %d", len(k1), len(k2), 4*arity)
		}

		sameNorm := true
		for a := 0; a < arity; a++ {
			if r1[a].Norm() != r2[a].Norm() {
				sameNorm = false
				break
			}
		}
		if sameKey := string(k1) == string(k2); sameKey != sameNorm {
			t.Fatalf("key/Norm disagree for %q vs %q: sameKey=%v sameNorm=%v (keys %x, %x)",
				s1, s2, sameKey, sameNorm, k1, k2)
		}

		// Determinism: re-packing the same tuple yields the same key,
		// with or without a cached ID row (Resolve fills it).
		t1.Resolve(g.dict)
		k1b, ok := g.verdictKey(t1, nil)
		if !ok || string(k1b) != string(k1) {
			t.Fatalf("re-pack diverged: %x vs %x (ok=%v)", k1b, k1, ok)
		}
	})
}
