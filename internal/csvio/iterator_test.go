package csvio_test

import (
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/csvio"
	"repro/internal/model"
)

// TestTupleIteratorInterns: every decoded tuple carries the base
// dictionary's ID for each value it holds and no ID for the rest, and
// the base never changes.
func TestTupleIteratorInterns(t *testing.T) {
	it, err := csvio.NewTupleIterator(strings.NewReader(sample), "stat")
	if err != nil {
		t.Fatal(err)
	}
	d := model.NewDict(model.S("Michael"), model.I(27), model.B(true), model.F(3))
	it.Intern(d)
	var n, misses int
	for {
		tu, err := it.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < tu.Schema().Arity(); j++ {
			id, ok := tu.IDIn(d, j)
			want, inBase := d.Lookup(tu.At(j))
			if ok != inBase || ok && id != want {
				t.Fatalf("row %d col %d: cached (%d, %v), base lookup (%d, %v)", it.Row(), j, id, ok, want, inBase)
			}
			if !ok {
				misses++
			}
		}
		n++
	}
	if n != 3 || misses == 0 {
		t.Fatalf("streamed %d tuples with %d base misses, want 3 tuples and some misses", n, misses)
	}
	if d.Size() != 5 {
		t.Fatalf("decoding changed the base to %d values", d.Size())
	}
}

func TestTupleIteratorRowError(t *testing.T) {
	it, err := csvio.NewTupleIterator(strings.NewReader("a,b\n1,2\n3\n\"x\nok,9\n"), "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(); err != nil {
		t.Fatalf("row 2: %v", err)
	}
	// Ragged row: recoverable, names row 3.
	_, err = it.Next()
	var re *csvio.RowError
	if !errors.As(err, &re) || re.Row != 3 {
		t.Fatalf("ragged row: want *RowError{Row: 3}, got %v", err)
	}
	if !csvio.IsRowError(err) {
		t.Fatalf("IsRowError(%v) = false", err)
	}
	if !strings.Contains(err.Error(), "row 3") {
		t.Fatalf("error should name row 3: %v", err)
	}
	// Unterminated quote: a csv parse error, also a recoverable RowError.
	_, err = it.Next()
	if !csvio.IsRowError(err) {
		t.Fatalf("quote error should be a RowError, got %v", err)
	}
	// EOF is not a RowError.
	for {
		_, err = it.Next()
		if err == nil {
			continue
		}
		if csvio.IsRowError(err) {
			continue
		}
		break
	}
	if !errors.Is(err, io.EOF) {
		t.Fatalf("stream should end in io.EOF, got %v", err)
	}
	if csvio.IsRowError(io.EOF) {
		t.Fatal("IsRowError(io.EOF) = true")
	}
}

func TestTupleIteratorRowCounter(t *testing.T) {
	it, err := csvio.NewTupleIterator(strings.NewReader("a\n1\n2\n"), "x")
	if err != nil {
		t.Fatal(err)
	}
	if it.Row() != 1 {
		t.Fatalf("after header Row() = %d, want 1", it.Row())
	}
	it.Next()
	if it.Row() != 2 {
		t.Fatalf("Row() = %d, want 2", it.Row())
	}
	it.Next()
	if it.Row() != 3 {
		t.Fatalf("Row() = %d, want 3", it.Row())
	}
}

// TestTupleIteratorRetainsValues pins the ReuseRecord safety argument:
// tuples decoded earlier must not be corrupted by later reads reusing
// the record buffer.
func TestTupleIteratorRetainsValues(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("name,v\n")
	for i := 0; i < 100; i++ {
		sb.WriteString("n")
		sb.WriteByte(byte('0' + i%10))
		sb.WriteString(",")
		sb.WriteByte(byte('a' + i%26))
		sb.WriteString("\n")
	}
	it, err := csvio.NewTupleIterator(strings.NewReader(sb.String()), "x")
	if err != nil {
		t.Fatal(err)
	}
	var all []*model.Tuple
	for {
		tu, err := it.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, tu)
	}
	for i, tu := range all {
		wantName := "n" + string(byte('0'+i%10))
		wantV := string(byte('a' + i%26))
		if n, _ := tu.Get("name"); n.String() != wantName {
			t.Fatalf("tuple %d name = %q, want %q (record buffer aliased?)", i, n.String(), wantName)
		}
		if v, _ := tu.Get("v"); v.String() != wantV {
			t.Fatalf("tuple %d v = %q, want %q", i, v.String(), wantV)
		}
	}
}

// TestTupleIteratorOn: an iterator opened on an existing schema matches
// header columns by name in any order, decodes each row onto that very
// schema (in schema order, row errors and interning included), and
// refuses an unknown, missing or repeated column by name.
func TestTupleIteratorOn(t *testing.T) {
	s := model.MustSchema("base", "id", "league", "rnds")
	for _, in := range []string{
		"id,league,rnds\nm1,east,30\nm2,west,10\n",
		"rnds,id,league\n30,m1,east\n10,m2,west\n",
	} {
		it, err := csvio.NewTupleIteratorOn(strings.NewReader(in), s)
		if err != nil {
			t.Fatal(err)
		}
		d := model.NewDict(model.S("east"), model.S("west"))
		it.Intern(d)
		var got []string
		for {
			tu, err := it.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if tu.Schema() != s {
				t.Fatal("tuple does not carry the given schema")
			}
			if id, ok := tu.IDIn(d, 1); !ok || id != lookup(d, tu.At(1)) {
				t.Fatalf("row %d: league not resolved", it.Row())
			}
			got = append(got, tu.String())
		}
		if want := "(m1, east, 30) (m2, west, 10)"; strings.Join(got, " ") != want {
			t.Fatalf("%q decoded to %v, want %s", in, got, want)
		}
	}

	it, err := csvio.NewTupleIteratorOn(strings.NewReader("rnds,id,league\n30,m1\n"), s)
	if err != nil {
		t.Fatal(err)
	}
	var re *csvio.RowError
	if _, err := it.Next(); !errors.As(err, &re) || re.Row != 2 {
		t.Fatalf("ragged row: want *RowError{Row: 2}, got %v", err)
	}

	for _, tc := range []struct{ header, want string }{
		{"id,leauge,rnds", `column "leauge" is not in relation base`},
		{"id,rnds", `column "league" of relation base is missing from the header`},
		{"id,league,rnds,id", `column "id" appears twice in the header`},
	} {
		_, err := csvio.NewTupleIteratorOn(strings.NewReader(tc.header+"\n"), s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("header %s: err = %v, want %q", tc.header, err, tc.want)
		}
	}
}

// FuzzTupleIterator runs the iterator over arbitrary bytes and checks
// its contract: every decoded tuple carries the iterator's schema, and
// RowErrors always carry a row number past the header.
func FuzzTupleIterator(f *testing.F) {
	f.Add([]byte(sample))
	f.Add([]byte("a,b\n1,2\n3\n4,5\n"))                               // ragged row mid-stream
	f.Add([]byte("\xef\xbb\xbfa,b\n1,\xef\xbb\xbf2\n"))               // BOM at start and mid-stream
	f.Add([]byte("a,b\r\n1,2\r\n3,4\r\n"))                            // CRLF endings
	f.Add([]byte("name,notes\n\"Jordan, Michael\",\"\"\"hi\"\"\"\n")) // quoted separators
	f.Add([]byte("a\n\"unterminated\n"))
	f.Add([]byte(""))
	f.Add([]byte("a,a\n1,2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		it, err := csvio.NewTupleIterator(strings.NewReader(string(data)), "fz")
		if err != nil {
			return
		}
		for steps := 0; steps < 10000; steps++ {
			tu, err := it.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					return
				}
				var re *csvio.RowError
				if errors.As(err, &re) {
					if re.Row < 2 {
						t.Fatalf("step %d: RowError row %d before data rows", steps, re.Row)
					}
					continue // recoverable: keep reading
				}
				return // stream-ending error
			}
			if tu.Schema() != it.Schema() {
				t.Fatalf("step %d: tuple does not carry the iterator's schema", steps)
			}
		}
	})
}

// lookup is v's ID in d, or model.NoID when d lacks it.
func lookup(d *model.Dict, v model.Value) uint32 {
	if id, ok := d.Lookup(v); ok {
		return id
	}
	return model.NoID
}
