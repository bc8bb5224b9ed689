package csvio_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/csvio"
	"repro/internal/model"
)

const sample = `name,rnds,active,score
Michael,27,true,91.5
MJ,,false,
null,1,true,3
`

func TestReadRelation(t *testing.T) {
	schema, tuples, err := csvio.ReadRelation(strings.NewReader(sample), "stat")
	if err != nil {
		t.Fatal(err)
	}
	if schema.Arity() != 4 || len(tuples) != 3 {
		t.Fatalf("shape: %d attrs, %d tuples", schema.Arity(), len(tuples))
	}
	if v, _ := tuples[0].Get("rnds"); !v.Equal(model.I(27)) || v.Kind() != model.Int {
		t.Errorf("rnds = %v (%v)", v, v.Kind())
	}
	if v, _ := tuples[0].Get("active"); !v.Equal(model.B(true)) {
		t.Errorf("active = %v", v)
	}
	if v, _ := tuples[0].Get("score"); !v.Equal(model.F(91.5)) {
		t.Errorf("score = %v", v)
	}
	if v, _ := tuples[1].Get("rnds"); !v.IsNull() {
		t.Errorf("empty cell should be null, got %v", v)
	}
	if v, _ := tuples[2].Get("name"); !v.IsNull() {
		t.Errorf("'null' cell should be null, got %v", v)
	}
}

func TestReadErrors(t *testing.T) {
	if _, _, err := csvio.ReadRelation(strings.NewReader(""), "x"); err == nil {
		t.Errorf("empty input should fail")
	}
	if _, _, err := csvio.ReadRelation(strings.NewReader("a,b\n1\n"), "x"); err == nil {
		t.Errorf("ragged row should fail")
	}
	if _, _, err := csvio.ReadRelation(strings.NewReader("a,a\n1,2\n"), "x"); err == nil {
		t.Errorf("duplicate header should fail")
	}
}

func TestRoundTrip(t *testing.T) {
	schema, tuples, err := csvio.ReadRelation(strings.NewReader(sample), "stat")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := csvio.WriteRelation(&buf, schema, tuples); err != nil {
		t.Fatal(err)
	}
	schema2, tuples2, err := csvio.ReadRelation(bytes.NewReader(buf.Bytes()), "stat")
	if err != nil {
		t.Fatal(err)
	}
	if schema2.Arity() != schema.Arity() || len(tuples2) != len(tuples) {
		t.Fatalf("round trip shape changed")
	}
	for i := range tuples {
		if !tuples[i].EqualTo(tuples2[i]) {
			t.Errorf("tuple %d changed: %v vs %v", i, tuples[i], tuples2[i])
		}
	}
}

func TestStreamingReader(t *testing.T) {
	it, err := csvio.NewTupleIterator(strings.NewReader(sample), "stat")
	if err != nil {
		t.Fatal(err)
	}
	if it.Schema().Arity() != 4 {
		t.Fatalf("arity = %d", it.Schema().Arity())
	}
	var n int
	for {
		tu, err := it.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if tu.Schema() != it.Schema() {
			t.Fatal("tuple uses a different schema instance")
		}
		n++
	}
	if n != 3 {
		t.Fatalf("streamed %d tuples, want 3", n)
	}
}

func TestStreamingRaggedRowNamesRow(t *testing.T) {
	it, err := csvio.NewTupleIterator(strings.NewReader("a,b\n1,2\n3\n4,5\n"), "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(); err != nil {
		t.Fatalf("row 2: %v", err)
	}
	_, err = it.Next()
	if err == nil || !strings.Contains(err.Error(), "row 3") {
		t.Fatalf("ragged row error should name row 3, got %v", err)
	}
	// Reading may continue past the malformed row.
	tu, err := it.Next()
	if err != nil {
		t.Fatalf("row 4 after ragged row: %v", err)
	}
	if v, _ := tu.Get("b"); !v.Equal(model.I(5)) {
		t.Fatalf("row 4 = %v", tu)
	}
}

func TestBOMStripped(t *testing.T) {
	schema, tuples, err := csvio.ReadRelation(strings.NewReader("\xef\xbb\xbfa,b\n1,2\n"), "x")
	if err != nil {
		t.Fatal(err)
	}
	if schema.Attr(0) != "a" {
		t.Fatalf("BOM leaked into first attribute: %q", schema.Attr(0))
	}
	if len(tuples) != 1 {
		t.Fatalf("%d tuples", len(tuples))
	}
}

func TestQuotedCommasAndQuotes(t *testing.T) {
	in := "name,notes\n\"Jordan, Michael\",\"said \"\"hi, there\"\"\"\n"
	schema, tuples, err := csvio.ReadRelation(strings.NewReader(in), "x")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := tuples[0].Get("name"); v.String() != "Jordan, Michael" {
		t.Fatalf("name = %q", v.String())
	}
	if v, _ := tuples[0].Get("notes"); v.String() != `said "hi, there"` {
		t.Fatalf("notes = %q", v.String())
	}
	var buf bytes.Buffer
	if err := csvio.WriteRelation(&buf, schema, tuples); err != nil {
		t.Fatal(err)
	}
	_, tuples2, err := csvio.ReadRelation(bytes.NewReader(buf.Bytes()), "x")
	if err != nil || !tuples2[0].EqualTo(tuples[0]) {
		t.Fatalf("quoted round trip: %v %v", err, tuples2)
	}
}

func TestHeaderOnlyRelationIsEmpty(t *testing.T) {
	schema, tuples, err := csvio.ReadRelation(strings.NewReader("a,b\n"), "x")
	if err != nil || schema.Arity() != 2 || len(tuples) != 0 {
		t.Fatalf("header-only: %v %d attrs %d tuples", err, schema.Arity(), len(tuples))
	}
}

func TestReadEntityInstanceAndMaster(t *testing.T) {
	ie, err := csvio.ReadEntityInstance(strings.NewReader(sample), "stat")
	if err != nil || ie.Size() != 3 {
		t.Fatalf("instance: %v %d", err, ie.Size())
	}
	im, err := csvio.ReadMaster(strings.NewReader(sample), "master")
	if err != nil || im.Size() != 3 {
		t.Fatalf("master: %v %d", err, im.Size())
	}
}
