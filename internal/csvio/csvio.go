// Package csvio loads and saves relations as CSV so the command-line
// tools can operate on user data: the first row is the header (attribute
// names), every other row a tuple. Values are interpreted by
// model.Parse — "null" and the empty string are null, numerals are
// numeric, true/false boolean, everything else string. Writing uses
// quoted strings only when CSV requires it.
//
// TupleIterator is the pull-based decoder under everything here: one
// Next call decodes one row into a tuple (optionally interning its
// values into a shared model.Dict as it goes), so arbitrarily large
// relations stream through in constant memory — no [][]string or
// []*Tuple materialization ever exists on this path. ReadRelation and
// friends are convenience wrappers that drain it. Malformed rows
// surface as *RowError naming the 1-based row and reading may continue
// past them. A UTF-8 byte-order mark at the start of the input is
// stripped (spreadsheet exports routinely prepend one).
package csvio

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/model"
)

// RowError reports one malformed CSV row — wrong field count, stray
// quote — naming the 1-based row number (the header is row 1). Row
// errors are recoverable: the iterator stays usable and the next Next
// (or Read) continues with the following row, so a caller may skip bad
// rows without losing the rest of the relation. Errors that are not
// RowErrors (I/O failures, EOF) end the stream.
type RowError struct {
	Row int   // 1-based row number of the malformed row
	Err error // what was wrong with it
}

func (e *RowError) Error() string { return "csvio: " + e.Err.Error() }

// Unwrap exposes the cause, so errors.As finds csv.ParseError inside.
func (e *RowError) Unwrap() error { return e.Err }

// IsRowError reports whether err is a recoverable per-row error, as
// opposed to one that ends the stream.
func IsRowError(err error) bool {
	var re *RowError
	return errors.As(err, &re)
}

// TupleIterator streams a CSV relation: the header row is consumed at
// construction (fixing the schema), Next decodes and returns one tuple
// per call. The iterator holds no row but the current one — the csv
// reader's record buffer is reused across rows (csv.Reader.ReuseRecord)
// and each row becomes a schema tuple immediately — so memory use is
// independent of the relation's length.
type TupleIterator struct {
	cr     *csv.Reader
	schema *model.Schema
	dict   *model.Dict // when non-nil, Next resolves each decoded tuple in it
	row    int         // 1-based row number of the last record read
	// perm is nil unless NewTupleIteratorOn met a header whose column
	// order differs from the schema's: then header column j holds
	// schema attribute perm[j], and Next reorders each record into
	// byOrder before decoding it.
	perm    []int
	byOrder []string
}

// NewTupleIterator reads the header row from r and fixes the relation
// schema (named name). An empty input is an error; a leading UTF-8 BOM
// is stripped. r may be any io.Reader — a file, a network body, a
// generator — the iterator never seeks.
func NewTupleIterator(r io.Reader, name string) (*TupleIterator, error) {
	cr, header, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	// The header was read into the reused record; NewSchema copies the
	// attribute strings it keeps, so no aliasing survives.
	schema, err := model.NewSchema(name, header...)
	if err != nil {
		return nil, err
	}
	return &TupleIterator{cr: cr, schema: schema, row: 1}, nil
}

// NewTupleIteratorOn reads the header row from r and decodes onto an
// existing schema, so the tuples join relations already built on it
// (schemas match by pointer identity). Header columns match the
// schema's attributes by name, in any order; a column the schema lacks,
// an attribute the header lacks and a column named twice are refused,
// naming the column.
func NewTupleIteratorOn(r io.Reader, schema *model.Schema) (*TupleIterator, error) {
	cr, header, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	perm := make([]int, len(header))
	seen := make([]bool, schema.Arity())
	inOrder := true
	for j, attr := range header {
		a := schema.Index(attr)
		if a < 0 {
			return nil, fmt.Errorf("csvio: column %q is not in relation %s", attr, schema.Name())
		}
		if seen[a] {
			return nil, fmt.Errorf("csvio: column %q appears twice in the header", attr)
		}
		seen[a] = true
		perm[j] = a
		inOrder = inOrder && a == j
	}
	for a, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("csvio: column %q of relation %s is missing from the header", schema.Attr(a), schema.Name())
		}
	}
	it := &TupleIterator{cr: cr, schema: schema, row: 1}
	if !inOrder {
		it.perm, it.byOrder = perm, make([]string, len(perm))
	}
	return it, nil
}

// readHeader opens a CSV reader over r, past a leading UTF-8 BOM, and
// reads the header row into the reader's reused record.
func readHeader(r io.Reader) (*csv.Reader, []string, error) {
	br := bufio.NewReader(r)
	if lead, err := br.Peek(3); err == nil && string(lead) == "\xef\xbb\xbf" {
		br.Discard(3)
	}
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = -1 // arity checked per row, with row numbers
	// Reuse the per-row field slice: the field strings themselves are
	// carved from a fresh per-record allocation, so the values a tuple
	// retains are safe; only the []string scaffolding is recycled.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, nil, fmt.Errorf("csvio: empty input")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("csvio: %w", err)
	}
	return cr, header, nil
}

// Schema returns the relation schema read from the header row.
func (it *TupleIterator) Schema() *model.Schema { return it.schema }

// Row returns the 1-based row number of the last record read (1 after
// construction: the header).
func (it *TupleIterator) Row() int { return it.row }

// Intern makes every subsequently decoded tuple carry its values' IDs
// in d, or a mark for each value d lacks (model.Tuple.Resolve), so
// downstream grounding probes no dictionary for values d holds and
// interns the rest into its own overlay without probing d again. d is
// a Shared's base dictionary, which lookups never change. It returns
// the iterator for chaining.
func (it *TupleIterator) Intern(d *model.Dict) *TupleIterator {
	it.dict = d
	return it
}

// Next returns the next tuple, or io.EOF after the last row. A
// malformed row returns a *RowError naming the 1-based row number;
// reading may continue past it.
func (it *TupleIterator) Next() (*model.Tuple, error) {
	record, err := it.cr.Read()
	if err == io.EOF {
		return nil, io.EOF
	}
	it.row++
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			return nil, &RowError{Row: it.row, Err: err}
		}
		return nil, fmt.Errorf("csvio: %w", err)
	}
	if len(record) != it.schema.Arity() {
		return nil, &RowError{Row: it.row,
			Err: fmt.Errorf("row %d has %d fields, want %d", it.row, len(record), it.schema.Arity())}
	}
	if it.perm != nil {
		for j, cell := range record {
			it.byOrder[it.perm[j]] = cell
		}
		record = it.byOrder
	}
	t := model.NewTuple(it.schema)
	for j, cell := range record {
		t.SetAt(j, model.Parse(cell))
	}
	if it.dict != nil {
		t.Resolve(it.dict)
	}
	return t, nil
}

// ReadRelation parses CSV into a schema (named name) and its tuples.
// It stops at the first malformed row.
func ReadRelation(r io.Reader, name string) (*model.Schema, []*model.Tuple, error) {
	it, err := NewTupleIterator(r, name)
	if err != nil {
		return nil, nil, err
	}
	var tuples []*model.Tuple
	for {
		t, err := it.Next()
		if err == io.EOF {
			return it.Schema(), tuples, nil
		}
		if err != nil {
			return nil, nil, err
		}
		tuples = append(tuples, t)
	}
}

// ReadRelationFile is ReadRelation over a file path; the relation is
// named after the path.
func ReadRelationFile(path string) (*model.Schema, []*model.Tuple, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadRelation(f, path)
}

// ReadEntityInstance loads a CSV as a single entity instance.
func ReadEntityInstance(r io.Reader, name string) (*model.EntityInstance, error) {
	schema, tuples, err := ReadRelation(r, name)
	if err != nil {
		return nil, err
	}
	ie := model.NewEntityInstance(schema)
	for _, t := range tuples {
		ie.MustAdd(t)
	}
	return ie, nil
}

// ReadMaster loads a CSV as a master relation.
func ReadMaster(r io.Reader, name string) (*model.MasterRelation, error) {
	schema, tuples, err := ReadRelation(r, name)
	if err != nil {
		return nil, err
	}
	im := model.NewMasterRelation(schema)
	for _, t := range tuples {
		im.MustAdd(t)
	}
	return im, nil
}

// RelationWriter streams a CSV relation out one tuple at a time — the
// write-side mirror of TupleIterator, for outputs produced while their
// rows are still being computed. The header is written at construction;
// Flush must be called after the last Write.
type RelationWriter struct {
	cw     *csv.Writer
	schema *model.Schema
	row    []string
}

// NewRelationWriter writes the schema's header row and returns a writer
// for its tuples.
func NewRelationWriter(w io.Writer, schema *model.Schema) (*RelationWriter, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(schema.Attrs()); err != nil {
		return nil, err
	}
	return &RelationWriter{cw: cw, schema: schema, row: make([]string, schema.Arity())}, nil
}

// Write appends one tuple as a CSV row (nulls render as empty cells).
// The tuple is read positionally, so any schema with the same attribute
// order works.
func (rw *RelationWriter) Write(t *model.Tuple) error {
	for j := range rw.row {
		v := t.At(j)
		if v.IsNull() {
			rw.row[j] = ""
		} else {
			rw.row[j] = v.String()
		}
	}
	return rw.cw.Write(rw.row)
}

// Flush writes any buffered rows through and reports the first error
// the underlying writer hit.
func (rw *RelationWriter) Flush() error {
	rw.cw.Flush()
	return rw.cw.Error()
}

// WriteRelation writes a header plus one row per tuple.
func WriteRelation(w io.Writer, schema *model.Schema, tuples []*model.Tuple) error {
	rw, err := NewRelationWriter(w, schema)
	if err != nil {
		return err
	}
	for _, t := range tuples {
		if err := rw.Write(t); err != nil {
			return err
		}
	}
	return rw.Flush()
}
