// Package model defines the data model underlying relative-accuracy
// reasoning: typed attribute values, relation schemas, tuples, entity
// instances and master relations, as in Section 2.1 of Cao, Fan and Yu,
// "Determining the Relative Accuracy of Attributes" (SIGMOD 2013).
//
// An entity instance Ie is a set of tuples of one schema R that all refer
// to the same real-world entity; a master relation Im is a set of
// high-quality tuples of a (possibly different) schema Rm. All higher
// layers — accuracy orders, accuracy rules, the chase, top-k candidate
// search — are built on these types.
package model

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types an attribute value can take.
// The zero Kind is Null, so a zero Value is the null value.
type Kind uint8

const (
	// Null is the missing value; it compares equal only to itself and is
	// unordered with respect to every other value.
	Null Kind = iota
	// String values compare lexicographically.
	String
	// Int values are signed 64-bit integers.
	Int
	// Float values are 64-bit IEEE floats. Ints and Floats compare
	// numerically with each other.
	Float
	// Bool values order false < true.
	Bool
)

// String returns the name of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is an immutable, dynamically typed attribute value. The zero
// Value is null. Values are comparable with == only through Equal;
// use Compare for ordering.
//
// A Value is 32 bytes: a string, one 64-bit payload word and the kind.
// The word holds an Int's bits, a Float's math.Float64bits, or 1 for
// true and 0 for false; the string holds a String's text. A field a
// kind does not use is zero, so a string, a boolean or a Float that
// is neither −0 nor NaN is already its own Norm, and a dictionary
// table (Dict) stores Norm values as they are: tuple cells and
// dictionary entries share one shape, and Norm is the one place
// values are folded. The shape is the smallest that holds a string
// beside a 64-bit number, which is what most of a dataset's heap is:
// a 31-attribute tuple's values take 992 bytes.
type Value struct {
	s    string // String: the text; the NaN class (Norm): "NaN"
	bits uint64 // Int: the int64's bits; Float: math.Float64bits; Bool: 1 true, 0 false
	kind Kind
}

// nanNorm is the one value every NaN normalizes to (see Norm).
var nanNorm = Value{s: "NaN", kind: Bool}

// NullValue returns the null value.
func NullValue() Value { return Value{} }

// S returns a string value.
func S(s string) Value { return Value{s: s, kind: String} }

// I returns an integer value.
func I(i int64) Value { return Value{bits: uint64(i), kind: Int} }

// F returns a float value.
func F(f float64) Value { return Value{bits: math.Float64bits(f), kind: Float} }

// B returns a boolean value.
func B(b bool) Value {
	if b {
		return Value{bits: 1, kind: Bool}
	}
	return Value{kind: Bool}
}

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == Null }

// Str returns the string payload; it is only meaningful when Kind()==String.
func (v Value) Str() string { return v.s }

// Int returns the integer payload; it is only meaningful when Kind()==Int.
func (v Value) Int() int64 {
	if v.kind != Int {
		return 0
	}
	return int64(v.bits)
}

// Float returns the numeric payload as a float64 for Int or Float values.
func (v Value) Float() float64 {
	switch v.kind {
	case Int:
		return float64(int64(v.bits))
	case Float:
		return math.Float64frombits(v.bits)
	}
	return 0
}

// Bool returns the boolean payload; it is only meaningful when Kind()==Bool.
func (v Value) Bool() bool { return v.kind == Bool && v.bits == 1 }

// Equal reports whether two values are identical. Int and Float values
// are numerically compared (I(3).Equal(F(3)) is true); null equals only
// null; NaN, and the NaN class Norm folds it into, equal nothing.
func (v Value) Equal(w Value) bool {
	if v.kind == w.kind {
		switch v.kind {
		case Float:
			return v.Float() == w.Float()
		case Bool:
			return v == w && v.s == ""
		}
		return v == w
	}
	if v.isNumeric() && w.isNumeric() {
		return v.Float() == w.Float()
	}
	return false
}

func (v Value) isNumeric() bool { return v.kind == Int || v.kind == Float }

// Comparable reports whether v and w can be ordered with Compare:
// both non-null and of the same kind, or both numeric.
func (v Value) Comparable(w Value) bool {
	if v.kind == Null || w.kind == Null {
		return false
	}
	if v.kind == w.kind {
		return true
	}
	return v.isNumeric() && w.isNumeric()
}

// Compare orders v against w, returning -1, 0 or +1. The second result
// is false when the values are incomparable (either is null, or the
// kinds are unrelated). Booleans order false < true.
func (v Value) Compare(w Value) (int, bool) {
	if !v.Comparable(w) {
		return 0, false
	}
	if v.isNumeric() && w.isNumeric() {
		a, b := v.Float(), w.Float()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	switch v.kind {
	case String:
		return strings.Compare(v.s, w.s), true
	case Bool:
		return cmp.Compare(v.bits, w.bits), true
	}
	return 0, false
}

// String renders the value for display. Null renders as "null"; strings
// render verbatim, and the NaN class as NaN.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "null"
	case String:
		return v.s
	case Int:
		return strconv.FormatInt(v.Int(), 10)
	case Float:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case Bool:
		if v.s != "" {
			return v.s
		}
		return strconv.FormatBool(v.bits == 1)
	default:
		return "?"
	}
}

// Quote renders the value unambiguously: strings are double-quoted,
// everything else as String(). Used by rule and tuple printers.
func (v Value) Quote() string {
	if v.kind == String {
		return strconv.Quote(v.s)
	}
	return v.String()
}

// Norm returns the canonical representative of v, which is what a
// dictionary table stores for it. Norm is the one place values fold:
// an int into the float it converts to (so int64 magnitudes beyond
// float64 precision collide, exactly as their Key strings do), −0
// into +0, and every NaN into one class. Every other value is its own
// Norm. The result is directly usable as a map key and — unlike Key —
// allocates nothing.
//
// Norm is a true canonical form: Norm(v) == Norm(w) (Go ==) exactly
// when Key(v) == Key(w), and Equal(v, w) implies equal Norms. Value
// interning (Dict) is sound only because of this — the fuzz test
// FuzzValueCanon pins it, on Norm's own results too. Equal Norms do
// not imply Equal for two ints that round to one float (Equal compares
// ints exactly) nor for NaN: IEEE makes NaN unequal to itself, but
// NaN != NaN under == would make a NaN useless as a map key, so Norm
// folds every NaN into a Bool-kinded value with the string "NaN",
// which no other value normalizes to. That class answers Equal,
// String, Quote and Key as NaN does.
func (v Value) Norm() Value {
	switch v.kind {
	case Int:
		return F(v.Float())
	case Float:
		switch f := v.Float(); {
		case f != f:
			return nanNorm
		case f == 0:
			return Value{kind: Float}
		}
	}
	return v
}

// Key returns a string that is identical exactly for values of one
// Norm class, for use as a map key: Equal values share a key, and so
// do numeric values of equal magnitude (-0.0 and +0.0 among them) and
// all NaNs.
func (v Value) Key() string {
	switch nv := v.Norm(); nv.kind {
	case Null:
		return "\x00"
	case String:
		return "s" + nv.s
	case Float:
		return "n" + nv.String()
	case Bool:
		if nv.s != "" {
			return "n" + nv.s
		}
		return "b" + nv.String()
	default:
		return "?"
	}
}

// Parse interprets a literal string as a Value: "null" or "" is null,
// "true"/"false" are booleans, integer and float literals are numeric,
// and anything else (or anything double-quoted) is a string.
func Parse(s string) Value {
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
	if !maybeNumber(s) {
		return S(s)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return I(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return F(f)
	}
	return S(s)
}

// maybeNumber reports whether strconv could read s as an int or a
// float: every byte is one a Go number literal may hold (digits, hex
// digits, xXpP._+-), or s spells inf, infinity or nan in any case with
// an optional sign. A false result is certain, so Parse skips strconv
// — and the error it allocates — for such cells.
func maybeNumber(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9', 'a' <= c && c <= 'f', 'A' <= c && c <= 'F':
		case c == 'x', c == 'X', c == 'p', c == 'P', c == '.', c == '_', c == '+', c == '-':
		default:
			if s[0] == '+' || s[0] == '-' {
				s = s[1:]
			}
			return strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") || strings.EqualFold(s, "nan")
		}
	}
	return true
}

// Bottom is the default value ⊥ of the top-k search (Section 6.1 of
// the paper), standing for some value outside the data. It is defined
// here, below package chase, so every schema's base dictionary holds
// it.
var Bottom = S("⊥")
