package model

import (
	"math"
	"strconv"
	"testing"
)

// FuzzValueCanon pins the canonicalization contract that value
// interning (Dict) is built on: Norm must be a true canonical form.
// For arbitrary parsed values v, w — and for their Norms, which are
// what a dictionary stores — the invariants are
//
//  1. Norm is idempotent and allocation-free comparable: Norm(Norm(v))
//     == Norm(v) under Go ==.
//  2. Norm classes and Key strings coincide: Norm(v) == Norm(w) iff
//     Key(v) == Key(w). (This is what lets the chase mix Key-based and
//     Norm/ID-based grouping without ever disagreeing.)
//  3. Equal(v, w) implies Norm(v) == Norm(w); the converse holds for
//     everything except NaN, which Equal (IEEE) rejects and Norm/Key
//     deliberately fold into one class.
//  4. Quote/Parse round-trips preserve the Norm class: a value printed
//     unambiguously and re-parsed lands in the same class (String is
//     lossy for strings that look like literals — that is what Quote
//     is for).
//
// The seeds cover the corners named in the dictionary design: NaN, ±0,
// numeric strings vs numbers, quoted literals and int/float folding.
func FuzzValueCanon(f *testing.F) {
	seeds := []string{
		"", "null", "NULL", "true", "false",
		"0", "-0", "0.0", "-0.0", "3", "3.0", "-17", "2.5",
		"NaN", "-NaN", "nan", "Inf", "-Inf", "+Inf", "1e300", "-1e-300",
		"9007199254740993",    // 2⁵³+1: int magnitude beyond float64 precision
		"9223372036854775807", // MaxInt64
		`"3"`, `"null"`, `""`, `"true"`, "x", "⊥", "a b", `"quo\"ted"`,
		"00", "0x10", "1_000", ".5", "5.", "1e", "--1",
	}
	for _, s := range seeds {
		for _, t := range seeds {
			f.Add(s, t)
		}
	}
	f.Fuzz(func(t *testing.T, s1, s2 string) {
		v, w := Parse(s1), Parse(s2)
		for _, v := range [2]Value{v, v.Norm()} {
			for _, w := range [2]Value{w, w.Norm()} {
				checkCanon(t, v, w)
			}
		}
	})
}

// checkCanon checks FuzzValueCanon's four invariants on v and w.
func checkCanon(t *testing.T, v, w Value) {
	t.Helper()
	// (1) Idempotence.
	if v.Norm() != v.Norm().Norm() {
		t.Fatalf("Norm not idempotent for %#v: %#v vs %#v", v, v.Norm(), v.Norm().Norm())
	}

	// (2) Norm classes == Key classes.
	sameNorm := v.Norm() == w.Norm()
	sameKey := v.Key() == w.Key()
	if sameNorm != sameKey {
		t.Fatalf("Norm/Key disagree for %#v vs %#v: sameNorm=%v sameKey=%v (norms %#v %#v, keys %q %q)",
			v, w, sameNorm, sameKey, v.Norm(), w.Norm(), v.Key(), w.Key())
	}

	// (3) Equal refines Norm equality, exactly up to NaN.
	if v.Equal(w) && !sameNorm {
		t.Fatalf("Equal values %#v, %#v have different Norms", v, w)
	}
	isNaN := v.Key() == F(math.NaN()).Key()
	if sameNorm && !isNaN && !v.Equal(w) {
		t.Fatalf("same-Norm values %#v, %#v are not Equal", v, w)
	}

	// (4) Quote/Parse round-trip stays in the class.
	rt := Parse(v.Quote())
	if rt.Norm() != v.Norm() {
		t.Fatalf("round-trip moved %#v out of its Norm class: %q -> %#v vs %#v",
			v, v.Quote(), rt.Norm(), v.Norm())
	}

	// String stays parseable for non-strings (strings may collide
	// with literals; Quote covers those above).
	if v.Kind() == Int {
		if i, err := strconv.ParseInt(v.String(), 10, 64); err != nil || i != v.Int() {
			t.Fatalf("Int String round-trip broke: %q", v.String())
		}
	}
}

// parseTwoCalls is Parse as it was before maybeNumber: strconv.ParseInt,
// then ParseFloat, on every cell. It is FuzzParse's oracle.
func parseTwoCalls(s string) Value {
	switch s {
	case "", "null", "NULL":
		return NullValue()
	case "true":
		return B(true)
	case "false":
		return B(false)
	}
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		if unq, err := strconv.Unquote(s); err == nil {
			return S(unq)
		}
		return S(s[1 : len(s)-1])
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return I(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return F(f)
	}
	return S(s)
}

// FuzzParse pins that skipping strconv for cells that cannot be
// numbers changes no parse: Parse agrees with parseTwoCalls in kind
// and in its unambiguous rendering (Quote keeps -0 apart from 0 and
// renders every NaN alike).
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "null", "true", "0", "-0", "-0.0", "+7", "1_000", "0x1p-2", "0X1P+2", "1e5", "1E-5", ".5", "5.",
		"inf", "-Inf", "+INF", "infinity", "-Infinity", "nan", "NaN", "+nan", "-NAN", "infinit", "nana",
		"540-m0.0.true", "abc", "⊥", "1.2.3", "--1", "0b101", "0o17", "9223372036854775808", `"3"`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Parse(s), parseTwoCalls(s)
		if got.Kind() != want.Kind() || got.Quote() != want.Quote() {
			t.Fatalf("Parse(%q) = %s %s, two-call parse %s %s", s, got.Kind(), got.Quote(), want.Kind(), want.Quote())
		}
	})
}
