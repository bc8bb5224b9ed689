package chase_test

import (
	"math"
	"testing"

	"repro/internal/chase"
	"repro/internal/model"
	"repro/internal/rule"
)

// guardPalette mixes the values integer guards must decide exactly as
// Op.Eval does: null, numbers that Norm folds together (±0, ints past
// 2⁵³ and the floats they round to), NaNs, infinities, strings — among
// them "" and "NaN" — and booleans, which order against nothing but
// their own kind.
var guardPalette = []model.Value{
	model.NullValue(),
	model.F(0), model.F(math.Copysign(0, -1)), model.I(-3), model.I(3), model.F(3), model.F(2.5),
	model.I(1 << 53), model.I(1<<53 + 1), model.F(1 << 53), model.I(1<<53 + 2),
	model.F(math.Inf(1)), model.F(math.Inf(-1)), model.F(math.NaN()),
	model.S(""), model.S("NaN"), model.S("a"), model.S("b"), model.Bottom,
	model.B(false), model.B(true),
}

var guardOps = []rule.Op{rule.Eq, rule.Ne, rule.Lt, rule.Le, rule.Gt, rule.Ge}

// FuzzIntegerGuards requires the integer guards to decide every
// operator exactly as rule.Op.Eval does on the model.Values, the
// reference the compiled guards replace: the rank guard of an ordered
// comparison of two tuples on one attribute, over every pair of an
// instance whose attribute holds the bytes' values, and the null guard
// of a comparison with the null constant, written either way round.
// The attribute is ranked exactly when its non-null values are of
// mutually comparable kinds and none is NaN; otherwise the rank guard
// compares values, and must still agree.
func FuzzIntegerGuards(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0, 3, 4, 5, 6, 8, 9})
	f.Add([]byte{13, 3, 14})
	f.Add([]byte{14, 15, 16, 17, 0})
	f.Add([]byte{19, 20, 0, 19})
	f.Add([]byte{7, 9, 10, 11, 12})
	schema := model.MustSchema("R", "A", "B")
	rules, err := rule.NewSet(schema, nil, &rule.Form1{
		RuleName: "newer",
		LHS:      []rule.Pred{rule.Cmp(rule.T1("A"), rule.Lt, rule.T2("A"))},
		RHS:      "B",
	})
	if err != nil {
		f.Fatal(err)
	}
	sh, err := chase.NewShared(schema, nil, rules)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 12 {
			return
		}
		ie := model.NewEntityInstance(schema)
		var vals []model.Value
		for _, b := range data {
			v := guardPalette[int(b)%len(guardPalette)]
			vals = append(vals, v)
			ie.MustAdd(model.MustTuple(schema, v, model.NullValue()))
		}
		g, err := sh.NewGrounding(ie, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := chase.Ranked(g, 0), rankable(vals); got != want {
			t.Fatalf("%v: ranked = %v, want %v", vals, got, want)
		}
		null := rule.C(model.NullValue())
		for _, op := range guardOps {
			for i, v := range vals {
				if got, want := chase.EvalCmp(g, rule.Cmp(rule.T1("A"), op, null), i, i), op.Eval(v, model.NullValue()); got != want {
					t.Fatalf("t1[A] %s null on %#v: guard %v, Op.Eval %v", op, v, got, want)
				}
				if got, want := chase.EvalCmp(g, rule.Cmp(null, op, rule.T2("A")), i, i), op.Eval(model.NullValue(), v); got != want {
					t.Fatalf("null %s t2[A] on %#v: guard %v, Op.Eval %v", op, v, got, want)
				}
				if op == rule.Eq || op == rule.Ne {
					continue // ID comparisons fold NaN and big ints by Norm, as documented
				}
				for j, w := range vals {
					if got, want := chase.EvalCmp(g, rule.Cmp(rule.T1("A"), op, rule.T2("A")), i, j), op.Eval(v, w); got != want {
						t.Fatalf("t1[A] %s t2[A] on (%#v, %#v): guard %v, Op.Eval %v", op, v, w, got, want)
					}
				}
			}
		}
	})
}

// rankable is the reference for when a version ranks an attribute: its
// non-null values all order against each other under Value.Compare, and
// none is NaN.
func rankable(vals []model.Value) bool {
	for _, v := range vals {
		if v.Kind() == model.Float && math.IsNaN(v.Float()) {
			return false
		}
		for _, w := range vals {
			if !v.IsNull() && !w.IsNull() && !v.Comparable(w) {
				return false
			}
		}
	}
	return true
}
