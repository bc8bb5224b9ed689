package model

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{NullValue(), Null, "null"},
		{S("hi"), String, "hi"},
		{I(42), Int, "42"},
		{I(-7), Int, "-7"},
		{F(2.5), Float, "2.5"},
		{B(true), Bool, "true"},
		{B(false), Bool, "false"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("String() = %q, want %q", c.v.String(), c.str)
		}
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		eq   bool
	}{
		{NullValue(), NullValue(), true},
		{NullValue(), S(""), false},
		{S("a"), S("a"), true},
		{S("a"), S("b"), false},
		{I(3), I(3), true},
		{I(3), F(3), true}, // numeric cross-kind equality
		{F(3.5), I(3), false},
		{B(true), B(true), true},
		{B(true), I(1), false},
		{S("3"), I(3), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.eq {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.eq)
		}
		if got := c.b.Equal(c.a); got != c.eq {
			t.Errorf("Equal not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		c    int
		ok   bool
	}{
		{I(1), I(2), -1, true},
		{I(2), I(1), 1, true},
		{I(2), F(2), 0, true},
		{F(1.5), I(2), -1, true},
		{S("a"), S("b"), -1, true},
		{S("b"), S("a"), 1, true},
		{B(false), B(true), -1, true},
		{NullValue(), I(1), 0, false},
		{I(1), NullValue(), 0, false},
		{S("1"), I(1), 0, false},
		{B(true), I(1), 0, false},
	}
	for _, c := range cases {
		got, ok := c.a.Compare(c.b)
		if ok != c.ok || (ok && got != c.c) {
			t.Errorf("%v.Compare(%v) = (%d, %v), want (%d, %v)", c.a, c.b, got, ok, c.c, c.ok)
		}
	}
}

func TestValueKeyConsistency(t *testing.T) {
	// Equal values must share a key; these pairs are equal cross-kind.
	if I(3).Key() != F(3).Key() {
		t.Errorf("I(3) and F(3) should share a key")
	}
	if I(3).Key() == S("3").Key() {
		t.Errorf("I(3) and S(\"3\") must not share a key")
	}
	if NullValue().Key() == S("").Key() {
		t.Errorf("null and empty string must not share a key")
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"", NullValue()},
		{"null", NullValue()},
		{"true", B(true)},
		{"false", B(false)},
		{"42", I(42)},
		{"-13", I(-13)},
		{"2.5", F(2.5)},
		{"hello", S("hello")},
		{`"42"`, S("42")},
		{`"quoted string"`, S("quoted string")},
	}
	for _, c := range cases {
		if got := Parse(c.in); !got.Equal(c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("Parse(%q) = %v (%v), want %v (%v)", c.in, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	f := func(i int64) bool {
		return Parse(I(i).String()).Equal(I(i))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(s string) bool {
		v := Parse(S(s).Quote())
		return v.Kind() == String && v.Str() == s
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareProperties(t *testing.T) {
	// Antisymmetry and consistency with Equal over ints.
	f := func(a, b int64) bool {
		va, vb := I(a), I(b)
		c1, ok1 := va.Compare(vb)
		c2, ok2 := vb.Compare(va)
		if !ok1 || !ok2 {
			return false
		}
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormMatchesKeyGrouping(t *testing.T) {
	vals := []Value{
		NullValue(), S(""), S("x"), S("NaN"),
		I(0), I(3), I(-7), F(3), F(3.5), F(-7),
		B(true), B(false),
		Parse("NaN"), F(math.NaN()),
	}
	for _, v := range vals {
		for _, w := range vals {
			keyEq := v.Key() == w.Key()
			normEq := v.Norm() == w.Norm()
			if keyEq != normEq {
				t.Errorf("%v vs %v: Key equality %v, Norm equality %v", v, w, keyEq, normEq)
			}
		}
	}
	// NaN must be usable as a map key (NaN != NaN would lose entries).
	m := map[Value]int{F(math.NaN()).Norm(): 1}
	if m[Parse("NaN").Norm()] != 1 {
		t.Error("NaN-normalized value is not retrievable from a map")
	}
}

// TestValueLayout pins Value at 32 bytes, the shape a dictionary table
// stores: a string, one payload word and the kind.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// pinnedValues are the values TestValueAnswersPinned pins the answers
// of: null and strings, ints (2⁵³+1 and the int64 extremes among
// them), floats (±0, ±Inf and NaN among them), the NaN class Norm
// folds NaN into, and booleans.
var pinnedValues = []Value{
	NullValue(), S(""), S("x"), S("NaN"), S("3"), S("false"),
	I(0), I(3), I(-7), I(math.MaxInt64), I(math.MinInt64), I(1<<53 + 1), I(1 << 53),
	F(0), F(math.Copysign(0, -1)), F(3), F(2.5), F(1 << 53), F(math.Inf(1)), F(math.Inf(-1)), F(math.NaN()),
	F(math.NaN()).Norm(), B(false), B(true),
}

// TestValueAnswersPinned pins, for every pinned value, its kind, each
// accessor's result (on a value of another kind too), String, Quote,
// Key and Norm class, and for every pair Equal and Compare. The NaN
// class answers Equal, String, Quote and Key as the NaN it stands for.
func TestValueAnswersPinned(t *testing.T) {
	type answers struct {
		kind, str     string
		i             int64
		fbits         uint64
		b             bool
		string, quote string
		key           string
		normClass     int // index of the first pinned value of v's Norm class
	}
	want := []answers{
		{"null", "", 0, 0x0, false, "null", "null", "\x00", 0},
		{"string", "", 0, 0x0, false, "", `""`, "s", 1},
		{"string", "x", 0, 0x0, false, "x", `"x"`, "sx", 2},
		{"string", "NaN", 0, 0x0, false, "NaN", `"NaN"`, "sNaN", 3},
		{"string", "3", 0, 0x0, false, "3", `"3"`, "s3", 4},
		{"string", "false", 0, 0x0, false, "false", `"false"`, "sfalse", 5},
		{"int", "", 0, 0x0, false, "0", "0", "n0", 6},
		{"int", "", 3, 0x4008000000000000, false, "3", "3", "n3", 7},
		{"int", "", -7, 0xc01c000000000000, false, "-7", "-7", "n-7", 8},
		{"int", "", math.MaxInt64, 0x43e0000000000000, false, "9223372036854775807", "9223372036854775807", "n9.223372036854776e+18", 9},
		{"int", "", math.MinInt64, 0xc3e0000000000000, false, "-9223372036854775808", "-9223372036854775808", "n-9.223372036854776e+18", 10},
		{"int", "", 1<<53 + 1, 0x4340000000000000, false, "9007199254740993", "9007199254740993", "n9.007199254740992e+15", 11},
		{"int", "", 1 << 53, 0x4340000000000000, false, "9007199254740992", "9007199254740992", "n9.007199254740992e+15", 11},
		{"float", "", 0, 0x0, false, "0", "0", "n0", 6},
		{"float", "", 0, 0x8000000000000000, false, "-0", "-0", "n0", 6},
		{"float", "", 0, 0x4008000000000000, false, "3", "3", "n3", 7},
		{"float", "", 0, 0x4004000000000000, false, "2.5", "2.5", "n2.5", 16},
		{"float", "", 0, 0x4340000000000000, false, "9.007199254740992e+15", "9.007199254740992e+15", "n9.007199254740992e+15", 11},
		{"float", "", 0, 0x7ff0000000000000, false, "+Inf", "+Inf", "n+Inf", 18},
		{"float", "", 0, 0xfff0000000000000, false, "-Inf", "-Inf", "n-Inf", 19},
		{"float", "", 0, math.Float64bits(math.NaN()), false, "NaN", "NaN", "nNaN", 20},
		{"bool", "NaN", 0, 0x0, false, "NaN", "NaN", "nNaN", 20},
		{"bool", "", 0, 0x0, false, "false", "false", "bfalse", 22},
		{"bool", "", 0, 0x0, true, "true", "true", "btrue", 23},
	}
	// pairs[i][j] encodes pinnedValues[i] against pinnedValues[j]:
	// Compare's (-1, true) as '<', (1, true) as '>', (0, true) as 'E'
	// when Equal and '0' when not, and (_, false) as 'N' when Equal
	// (null against null) and '.' when not.
	pairs := []string{
		"N.......................",
		".E<<<<..................",
		".>E>>>..................",
		".><E><..................",
		".><<E<..................",
		".><>>E..................",
		"......E<><><<EE<<<<>0...",
		"......>E><><<>>E><<>0...",
		"......<<E<><<<<<<<<>0...",
		"......>>>E>>>>>>>><>0...",
		"......<<<<E<<<<<<<<>0...",
		"......>>><>E0>>>>E<>0...",
		"......>>><>0E>>>>E<>0...",
		"......E<><><<EE<<<<>0...",
		"......E<><><<EE<<<<>0...",
		"......>E><><<>>E><<>0...",
		"......><><><<>><E<<>0...",
		"......>>><>EE>>>>E<>0...",
		"......>>>>>>>>>>>>E>0...",
		"......<<<<<<<<<<<<<E0...",
		"......000000000000000...",
		".....................00<",
		".....................0E<",
		".....................>>E",
	}
	for i, v := range pinnedValues {
		first := i
		for j, w := range pinnedValues {
			if v.Norm() == w.Norm() {
				first = j
				break
			}
		}
		got := answers{v.Kind().String(), v.Str(), v.Int(), math.Float64bits(v.Float()), v.Bool(),
			v.String(), v.Quote(), v.Key(), first}
		if got != want[i] {
			t.Errorf("value %d: answers %+v, want %+v", i, got, want[i])
		}
		row := make([]byte, len(pinnedValues))
		for j, w := range pinnedValues {
			c, ok := v.Compare(w)
			eq := v.Equal(w)
			switch {
			case !ok && eq:
				row[j] = 'N'
			case !ok:
				row[j] = '.'
			case c < 0:
				row[j] = '<'
			case c > 0:
				row[j] = '>'
			case eq:
				row[j] = 'E'
			default:
				row[j] = '0'
			}
			if eq && ok && c != 0 {
				t.Errorf("value %d equals value %d but Compare gives %d", i, j, c)
			}
		}
		if string(row) != pairs[i] {
			t.Errorf("value %d (%s) against each pinned value:\n got %s\nwant %s", i, v.Quote(), row, pairs[i])
		}
	}
}
