package er_test

import (
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/csvio"
	"repro/internal/er"
	"repro/internal/model"
)

// sliceSource replays a fixed tuple slice, optionally injecting a
// recoverable error before a given index.
type sliceSource struct {
	tuples []*model.Tuple
	i      int
	errAt  int // inject errInjected before tuple errAt (-1: never)
	erred  bool
}

var errInjected = errors.New("injected row error")

func (s *sliceSource) Next() (*model.Tuple, error) {
	if s.i == s.errAt && !s.erred {
		s.erred = true
		return nil, errInjected
	}
	if s.i >= len(s.tuples) {
		return nil, io.EOF
	}
	t := s.tuples[s.i]
	s.i++
	return t, nil
}

// mkTuples builds a one-key-one-value relation from "key:val" specs;
// "null:val" rows carry a null key.
func mkTuples(t *testing.T, specs ...string) (*model.Schema, []*model.Tuple) {
	t.Helper()
	s, err := model.NewSchema("r", "id", "val")
	if err != nil {
		t.Fatal(err)
	}
	var out []*model.Tuple
	for _, spec := range specs {
		k, v, _ := strings.Cut(spec, ":")
		tu := model.NewTuple(s)
		tu.SetAt(0, model.Parse(k))
		tu.SetAt(1, model.Parse(v))
		out = append(out, tu)
	}
	return s, out
}

func drain(t *testing.T, es *er.EntityStream) []*model.EntityInstance {
	t.Helper()
	var out []*model.EntityInstance
	for {
		ie, err := es.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ie)
	}
}

// instancesEqual demands byte-identical grouping: same entity count,
// same per-entity tuples in the same order.
func instancesEqual(a, b []*model.EntityInstance) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ta, tb := a[i].Tuples(), b[i].Tuples()
		if len(ta) != len(tb) {
			return false
		}
		for j := range ta {
			if !ta[j].EqualTo(tb[j]) {
				return false
			}
		}
	}
	return true
}

// TestStreamGroupByEquivalence: for sorted (run-length) input, every
// window size — including 1 — reproduces GroupBy exactly.
func TestStreamGroupByEquivalence(t *testing.T) {
	s, tuples := mkTuples(t,
		"a:1", "a:2", "null:x", "b:3", "b:4", "b:5", "null:y", "c:6",
	)
	want, err := er.GroupBy(tuples, s, "id")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []er.Window{
		{}, // unbounded
		{MaxEntities: 1},
		{MaxEntities: 2},
		{MaxEntities: 7},
	} {
		es, err := er.StreamGroupBy(&sliceSource{tuples: tuples, errAt: -1}, s, "id", er.StreamOpts{Window: w})
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, es)
		if !instancesEqual(got, want) {
			t.Errorf("window %+v: streaming differs from GroupBy: %d vs %d entities", w, len(got), len(want))
		}
	}
}

// TestStreamGroupByUnboundedMatchesAnyOrder: with no window, any input
// order (even adversarial) reproduces GroupBy.
func TestStreamGroupByUnboundedMatchesAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var specs []string
	for i := 0; i < 200; i++ {
		keys := []string{"a", "b", "c", "d", "null"}
		specs = append(specs, keys[rng.Intn(len(keys))]+":v")
	}
	s, tuples := mkTuples(t, specs...)
	want, err := er.GroupBy(tuples, s, "id")
	if err != nil {
		t.Fatal(err)
	}
	es, err := er.StreamGroupBy(&sliceSource{tuples: tuples, errAt: -1}, s, "id", er.StreamOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, es); !instancesEqual(got, want) {
		t.Fatal("unbounded streaming differs from GroupBy")
	}
}

// TestStreamGroupByWindowError: a key reappearing after its entity was
// sealed must refuse — never silently split the entity.
func TestStreamGroupByWindowError(t *testing.T) {
	s, tuples := mkTuples(t, "a:1", "b:2", "c:3", "a:4")
	es, err := er.StreamGroupBy(&sliceSource{tuples: tuples, errAt: -1}, s, "id",
		er.StreamOpts{Window: er.Window{MaxEntities: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var we *er.WindowError
	var got []*model.EntityInstance
	for {
		ie, err := es.Next()
		if err != nil {
			if !errors.As(err, &we) {
				t.Fatalf("want WindowError, got %v", err)
			}
			break
		}
		got = append(got, ie)
	}
	if we.Key != model.Parse("a").Key() || we.Tuple != 4 {
		t.Fatalf("WindowError = %+v, want key a at tuple 4", we)
	}
	// Sticky: the stream stays dead.
	if _, err := es.Next(); !errors.As(err, &we) {
		t.Fatalf("error should be sticky, got %v", err)
	}
	// And with a window of 3 the same input succeeds.
	es2, _ := er.StreamGroupBy(&sliceSource{tuples: tuples, errAt: -1}, s, "id",
		er.StreamOpts{Window: er.Window{MaxEntities: 3}})
	want, _ := er.GroupBy(tuples, s, "id")
	if got := drain(t, es2); !instancesEqual(got, want) {
		t.Fatal("window 3 should group this input exactly")
	}
}

// TestStreamGroupByRaggedRowResume is the ragged-row contract: a bad
// row skips the row, not the entity — the entity keeps accumulating
// across the error, and the grouping matches GroupBy over the good rows.
func TestStreamGroupByRaggedRowResume(t *testing.T) {
	s, tuples := mkTuples(t, "a:1", "a:2", "b:3")
	var seen []error
	es, err := er.StreamGroupBy(&sliceSource{tuples: tuples, errAt: 1}, s, "id", er.StreamOpts{
		Window:     er.Window{MaxEntities: 1},
		OnRowError: func(err error) error { seen = append(seen, err); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, es)
	want, _ := er.GroupBy(tuples, s, "id")
	if !instancesEqual(got, want) {
		t.Fatalf("grouping after skipped row differs: got %d entities", len(got))
	}
	if got[0].Size() != 2 {
		t.Fatalf("entity a should keep both tuples across the bad row, has %d", got[0].Size())
	}
	if len(seen) != 1 || !errors.Is(seen[0], errInjected) {
		t.Fatalf("handler saw %v", seen)
	}
	// Nil handler: same injection aborts the stream.
	es2, _ := er.StreamGroupBy(&sliceSource{tuples: tuples, errAt: 1}, s, "id", er.StreamOpts{})
	if _, err := es2.Next(); !errors.Is(err, errInjected) {
		t.Fatalf("nil handler should abort with the row error, got %v", err)
	}
}

// TestStreamGroupByRaggedCSV drives the resume contract end to end
// through a real csvio.TupleIterator with a malformed row inside an
// entity's run.
func TestStreamGroupByRaggedCSV(t *testing.T) {
	const in = "id,val\na,1\na\na,2\nb,3\n" // row 3 is ragged, inside entity a
	it, err := csvio.NewTupleIterator(strings.NewReader(in), "r")
	if err != nil {
		t.Fatal(err)
	}
	var skipped []error
	es, err := er.StreamGroupBy(it, it.Schema(), "id", er.StreamOpts{
		Window: er.Window{MaxEntities: 1},
		OnRowError: func(err error) error {
			if !csvio.IsRowError(err) {
				return err
			}
			skipped = append(skipped, err)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, es)
	if len(got) != 2 || got[0].Size() != 2 || got[1].Size() != 1 {
		t.Fatalf("want entities a(2 tuples), b(1 tuple); got %d entities", len(got))
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0].Error(), "row 3") {
		t.Fatalf("skipped = %v", skipped)
	}
}

func TestStreamGroupByNullReject(t *testing.T) {
	s, tuples := mkTuples(t, "a:1", "null:2")
	es, err := er.StreamGroupBy(&sliceSource{tuples: tuples, errAt: -1}, s, "id",
		er.StreamOpts{Nulls: er.NullReject})
	if err != nil {
		t.Fatal(err)
	}
	_, err = es.Next()
	if err == nil || !strings.Contains(err.Error(), "tuple 2 has a null id value") {
		t.Fatalf("want null rejection naming tuple 2, got %v", err)
	}
}

func TestStreamGroupByKeyOfAndLastKey(t *testing.T) {
	s, tuples := mkTuples(t, "a:1", "b:2")
	es, err := er.StreamGroupBy(&sliceSource{tuples: tuples, errAt: -1}, s, "id", er.StreamOpts{
		KeyOf: func(v model.Value) (string, error) { return "k/" + v.String(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for {
		_, err := es.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, es.LastKey())
	}
	if len(keys) != 2 || keys[0] != "k/a" || keys[1] != "k/b" {
		t.Fatalf("keys = %v", keys)
	}
	// KeyOf error aborts.
	es2, _ := er.StreamGroupBy(&sliceSource{tuples: tuples, errAt: -1}, s, "id", er.StreamOpts{
		KeyOf: func(v model.Value) (string, error) { return "", errors.New("bad key") },
	})
	if _, err := es2.Next(); err == nil || err.Error() != "bad key" {
		t.Fatalf("want KeyOf error, got %v", err)
	}
}

func TestStreamGroupByUnknownAttr(t *testing.T) {
	s, tuples := mkTuples(t, "a:1")
	_, err := er.StreamGroupBy(&sliceSource{tuples: tuples, errAt: -1}, s, "nope", er.StreamOpts{})
	var ue *er.UnknownAttrError
	if !errors.As(err, &ue) || ue.Attr != "nope" {
		t.Fatalf("want UnknownAttrError{nope}, got %v", err)
	}
}
