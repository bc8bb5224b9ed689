package ruledsl_test

import (
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/model"
	"repro/internal/paperdata"
	"repro/internal/rule"
	"repro/internal/ruledsl"
)

func TestParseForm1(t *testing.T) {
	rules, err := ruledsl.Parse(`
# currency on rounds
phi1: t1[league] = t2[league] , t1[rnds] < t2[rnds] -> t1 <= t2 @ rnds
phi2: t1 < t2 @ rnds -> t1 <= t2 @ J#
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %d", len(rules))
	}
	f1, ok := rules[0].(*rule.Form1)
	if !ok || f1.RuleName != "phi1" || f1.RHS != "rnds" || len(f1.LHS) != 2 {
		t.Fatalf("phi1 parsed wrong: %+v", rules[0])
	}
	if f1.LHS[1].Op != rule.Lt {
		t.Errorf("phi1 second predicate op = %v", f1.LHS[1].Op)
	}
	f2 := rules[1].(*rule.Form1)
	if f2.RHS != "J#" || f2.LHS[0].Kind != rule.OrderPred || !f2.LHS[0].Strict {
		t.Fatalf("phi2 parsed wrong: %+v", f2)
	}
}

func TestParseForm2(t *testing.T) {
	rules, err := ruledsl.Parse(
		`phi6: master te[FN] = tm[FN] , te[LN] = tm[LN] , tm[season] = "1994-95" -> te[league] = tm[league]`)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := rules[0].(*rule.Form2)
	if !ok {
		t.Fatalf("not a form-2 rule: %T", rules[0])
	}
	if f.TargetAttr != "league" || f.MasterAttr != "league" || len(f.Conds) != 3 {
		t.Fatalf("parsed wrong: %+v", f)
	}
	if !f.Conds[2].OnMaster || !f.Conds[2].Const.Equal(model.S("1994-95")) {
		t.Errorf("season condition parsed wrong: %+v", f.Conds[2])
	}
}

func TestParseLiterals(t *testing.T) {
	rules, err := ruledsl.Parse(`
r1: t1[a] = null , t2[a] != null -> t1 <= t2 @ a
r2: t1[n] < 42 -> t1 <= t2 @ n
r3: t2[b] = true -> t1 <= t2 @ b
r4: te[s] = "x y" -> t1 <= t2 @ s
`)
	if err != nil {
		t.Fatal(err)
	}
	r1 := rules[0].(*rule.Form1)
	if !r1.LHS[0].Right.Val.IsNull() {
		t.Errorf("null literal parsed wrong")
	}
	r2 := rules[1].(*rule.Form1)
	if !r2.LHS[0].Right.Val.Equal(model.I(42)) {
		t.Errorf("int literal parsed wrong: %v", r2.LHS[0].Right.Val)
	}
	r3 := rules[2].(*rule.Form1)
	if !r3.LHS[0].Right.Val.Equal(model.B(true)) {
		t.Errorf("bool literal parsed wrong")
	}
	r4 := rules[3].(*rule.Form1)
	if r4.LHS[0].Left.Kind != rule.TargetAttr || !r4.LHS[0].Right.Val.Equal(model.S("x y")) {
		t.Errorf("target/string parsed wrong: %+v", r4.LHS[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`r1 t1[a] = t2[a] -> t1 <= t2 @ a`,      // missing colon
		`r1: t1[a] = -> t1 <= t2 @ a`,           // missing operand
		`r1: t1[a] = t2[a] -> t2 <= t1 @ a`,     // wrong consequence shape
		`r1: t1 > t2 @ a -> t1 <= t2 @ a`,       // bad order operator
		`r1: t1[a] = t2[a] -> t1 <= t2`,         // missing @attr
		`r1: master te[a] = tm[b] -> te[a]`,     // incomplete consequence
		`r1: t1[unclosed = 3 -> t1 <= t2 @ a`,   // unterminated bracket
		`r1: t1[a] = "unclosed -> t1 <= t2 @ a`, // unterminated string
	}
	for _, in := range bad {
		if _, err := ruledsl.Parse(in); err == nil {
			t.Errorf("expected error for %q", in)
		} else if pe, ok := err.(*ruledsl.ParseError); !ok || pe.Line != 1 {
			t.Errorf("expected line-1 ParseError for %q, got %v", in, err)
		}
	}
}

// TestRoundTrip: Format then Parse must reproduce the paper's rule set,
// verified by chasing to the same target.
func TestRoundTrip(t *testing.T) {
	orig := paperdata.Rules()
	text := ruledsl.Format(orig)
	parsed, err := ruledsl.Parse(text)
	if err != nil {
		t.Fatalf("parse of formatted rules: %v\n%s", err, text)
	}
	if len(parsed) != len(orig) {
		t.Fatalf("round trip lost rules: %d vs %d", len(parsed), len(orig))
	}
	for i := range orig {
		if parsed[i].String() != orig[i].String() {
			t.Errorf("rule %d round-trip mismatch:\n  %s\n  %s", i, orig[i], parsed[i])
		}
	}

	// The parsed rules must drive the chase to the paper's target.
	ie := paperdata.Stat()
	im := paperdata.NBA()
	rs, err := rule.NewSet(ie.Schema(), im.Schema(), parsed...)
	if err != nil {
		t.Fatal(err)
	}
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Im: im, Rules: rs}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Run(nil); !res.CR || !res.Target.EqualTo(paperdata.Target()) {
		t.Errorf("parsed rules deduce %v (CR=%v)", res.Target, res.CR)
	}
}

func TestCommentsAndAttrNames(t *testing.T) {
	rules, err := ruledsl.Parse(`
# full-line comment
phi2: t1 < t2 @ rnds -> t1 <= t2 @ J#   # trailing comment
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].(*rule.Form1).RHS != "J#" {
		t.Fatalf("J# attribute mangled: %+v", rules[0])
	}
}

func TestFormatIsStable(t *testing.T) {
	text := ruledsl.Format(paperdata.Rules())
	parsed, err := ruledsl.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if again := ruledsl.Format(parsed); again != text {
		t.Errorf("format not stable:\n%s\nvs\n%s", text, again)
	}
	if !strings.Contains(text, "phi1:") {
		t.Errorf("formatted text missing rule names:\n%s", text)
	}
}
