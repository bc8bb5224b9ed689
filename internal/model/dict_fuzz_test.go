package model

import (
	"math"
	"testing"
)

// dictPalette is the value mix FuzzDictTable draws from: the values
// whose Norm classes are subtle. ±0 fold together; NaNs with different
// payloads fold together (and with the Bool-kinded sentinel Norm gives
// them) but not with the string "NaN"; ints past 2⁵³ fold with the
// float they round to; "" is a string, not null; ⊥ (Bottom) is a
// string every base holds in the chase.
var dictPalette = []Value{
	NullValue(),
	F(0), F(math.Copysign(0, -1)), I(0),
	F(math.NaN()), F(math.Float64frombits(0x7ff8000000000001)), F(math.Float64frombits(0xfff0000000000001)),
	F(math.NaN()).Norm(),
	I(1 << 53), I(1<<53 + 1), F(1 << 53), I(1<<53 + 2), F(1<<53 + 2),
	I(math.MaxInt64), F(math.MaxInt64), I(math.MinInt64),
	I(3), F(3), F(2.5), F(math.Inf(1)), F(math.Inf(-1)),
	S(""), S("NaN"), S("⊥"), Bottom, S("3"), S("x"), S("x\x00"),
	B(true), B(false),
}

// FuzzDictTable checks the open-addressing tables of a base and an
// overlay against a map[Value]uint32 reference keyed by Norm: the first
// byte of data says how many of the following values build the base,
// and the rest are interned into an overlay one at a time, through a
// tuple whose ID row was resolved against the base when the value's
// byte has its high bit set. Both must issue the reference's IDs in
// the reference's order, answer every Lookup the reference answers,
// and report the reference's size.
func FuzzDictTable(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7})
	all := make([]byte, 0, 2*len(dictPalette)+1)
	all = append(all, byte(len(dictPalette)/2))
	for i := range dictPalette {
		all = append(all, byte(i), byte(len(dictPalette)-1-i)|0x80)
	}
	f.Add(all)
	schema := MustSchema("R", "v")
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pick := func(b byte) Value { return dictPalette[int(b&0x7f)%len(dictPalette)] }
		nBase := min(int(data[0]), len(data)-1)
		ref := map[Value]uint32{NullValue(): NullID}
		var baseVals []Value
		for _, b := range data[1 : 1+nBase] {
			v := pick(b)
			baseVals = append(baseVals, v)
			if _, ok := ref[v.Norm()]; !ok {
				ref[v.Norm()] = uint32(len(ref))
			}
		}
		baseSize := len(ref)
		d := NewDict(baseVals...)
		if d.Size() != baseSize {
			t.Fatalf("base holds %d values, reference %d", d.Size(), baseSize)
		}
		for _, v := range baseVals {
			if id, ok := d.Lookup(v); !ok || id != ref[v.Norm()] {
				t.Fatalf("base Lookup(%#v) = (%d, %v), reference %d", v, id, ok, ref[v.Norm()])
			}
		}
		o := d.Overlay()
		for _, b := range data[1+nBase:] {
			v := pick(b)
			want, ok := ref[v.Norm()]
			if !ok {
				want = uint32(len(ref))
				ref[v.Norm()] = want
			}
			tu := MustTuple(schema, v)
			if b&0x80 != 0 {
				tu.Resolve(d)
			}
			if got := internAt(o, tu, 0); got != want {
				t.Fatalf("overlay interned %#v as %d, reference %d", v, got, want)
			}
			if o.Size() != len(ref) {
				t.Fatalf("overlay holds %d values, reference %d", o.Size(), len(ref))
			}
		}
		for _, v := range dictPalette {
			want, inRef := ref[v.Norm()]
			id, ok := o.Lookup(v)
			if ok != inRef || id != want {
				t.Fatalf("overlay Lookup(%#v) = (%d, %v), reference (%d, %v)", v, id, ok, want, inRef)
			}
			id, ok = d.Lookup(v)
			if inBase := inRef && int(want) < baseSize; ok != inBase || (ok && id != want) {
				t.Fatalf("base Lookup(%#v) = (%d, %v), reference (%d, %v)", v, id, ok, want, inBase)
			}
		}
		if d.Size() != baseSize {
			t.Fatalf("the overlay's inserts reached the base: %d values, was %d", d.Size(), baseSize)
		}
	})
}
