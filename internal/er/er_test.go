package er_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/er"
	"repro/internal/model"
)

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		d    int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"jordan", "jordan", 0},
		{"jordan", "jordon", 1},
	}
	for _, c := range cases {
		if got := er.Levenshtein(c.a, c.b); got != c.d {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.d)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	f := func(a, b string) bool {
		d1 := er.Levenshtein(a, b)
		d2 := er.Levenshtein(b, a)
		if d1 != d2 {
			return false // symmetry
		}
		if a == b && d1 != 0 {
			return false // identity
		}
		return d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringSimilarity(t *testing.T) {
	if s := er.StringSimilarity("Michael Jordan", "michael jordan"); s != 1 {
		t.Errorf("case-insensitive similarity = %v", s)
	}
	if s := er.StringSimilarity("Michael Jordan", "Michael Jordon"); s < 0.9 {
		t.Errorf("near-identical similarity = %v", s)
	}
	if s := er.StringSimilarity("Michael Jordan", "Scottie Pippen"); s > 0.5 {
		t.Errorf("different names similarity = %v", s)
	}
	if s := er.StringSimilarity("", ""); s != 1 {
		t.Errorf("empty strings = %v", s)
	}
}

func TestResolveClusters(t *testing.T) {
	s := model.MustSchema("r", "name", "city")
	tuples := []*model.Tuple{
		model.MustTuple(s, model.S("Michael Jordan"), model.S("Chicago")),
		model.MustTuple(s, model.S("michael jordan"), model.S("chicago")),
		model.MustTuple(s, model.S("Michael Jordon"), model.S("Chicago")),
		model.MustTuple(s, model.S("Scottie Pippen"), model.S("Chicago")),
		model.MustTuple(s, model.S("Scottie Pipen"), model.S("Chicago")),
	}
	out, err := er.Resolve(tuples, s, er.Config{KeyAttrs: []string{"name"}, Threshold: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("clusters = %d, want 2", len(out))
	}
	if out[0].Size() != 3 || out[1].Size() != 2 {
		t.Errorf("cluster sizes = %d, %d", out[0].Size(), out[1].Size())
	}
}

func TestResolveTransitivity(t *testing.T) {
	// a~b and b~c should merge all three even when a~c alone falls
	// below the threshold.
	s := model.MustSchema("r", "name")
	tuples := []*model.Tuple{
		model.MustTuple(s, model.S("abcdefgh")),
		model.MustTuple(s, model.S("abcdefgX")),
		model.MustTuple(s, model.S("abcdefYX")),
	}
	out, err := er.Resolve(tuples, s, er.Config{KeyAttrs: []string{"name"}, Threshold: 0.87})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Errorf("clusters = %d, want 1 via transitivity", len(out))
	}
}

func TestResolveBlocking(t *testing.T) {
	s := model.MustSchema("r", "name")
	var tuples []*model.Tuple
	for i := 0; i < 40; i++ {
		tuples = append(tuples, model.MustTuple(s, model.S(fmt.Sprintf("entity%02d record", i%10))))
	}
	out, err := er.Resolve(tuples, s, er.Config{
		KeyAttrs:    []string{"name"},
		BlockAttr:   "name",
		BlockPrefix: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Errorf("clusters = %d, want 10", len(out))
	}
	for _, ie := range out {
		if ie.Size() != 4 {
			t.Errorf("cluster size = %d, want 4", ie.Size())
		}
	}
}

func TestResolveNullKeys(t *testing.T) {
	s := model.MustSchema("r", "name", "phone")
	tuples := []*model.Tuple{
		model.MustTuple(s, model.S("Jordan"), model.NullValue()),
		model.MustTuple(s, model.S("Jordan"), model.S("555")),
		model.MustTuple(s, model.NullValue(), model.NullValue()),
	}
	out, err := er.Resolve(tuples, s, er.Config{KeyAttrs: []string{"name", "phone"}, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	// Tuples 0 and 1 merge (name matches, phone unknown counts 0.5);
	// the all-null tuple stays alone.
	if len(out) != 2 {
		t.Fatalf("clusters = %d, want 2", len(out))
	}
}

func TestResolveUnknownAttr(t *testing.T) {
	s := model.MustSchema("r", "name")
	if _, err := er.Resolve(nil, s, er.Config{KeyAttrs: []string{"zz"}}); err == nil {
		t.Errorf("unknown key attribute should fail")
	}
	if _, err := er.Resolve(nil, s, er.Config{KeyAttrs: []string{"name"}, BlockAttr: "zz"}); err == nil {
		t.Errorf("unknown block attribute should fail")
	}
}

// TestResolveRecoversPlantedClusters: planted entities with typo'd keys
// are recovered.
func TestResolveRecoversPlantedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := model.MustSchema("r", "name")
	names := []string{"Paracetamol Forte", "Ibuprofen Extra", "Aspirin Cardio", "Vitamin C Plus"}
	var tuples []*model.Tuple
	want := map[int]int{}
	for i, base := range names {
		for k := 0; k < 5; k++ {
			name := base
			if k > 0 && rng.Intn(2) == 0 {
				// Introduce a single-character typo.
				r := []rune(name)
				pos := rng.Intn(len(r))
				r[pos] = 'x'
				name = string(r)
			}
			tuples = append(tuples, model.MustTuple(s, model.S(name)))
			want[i]++
		}
	}
	out, err := er.Resolve(tuples, s, er.Config{KeyAttrs: []string{"name"}, Threshold: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(names) {
		t.Fatalf("clusters = %d, want %d", len(out), len(names))
	}
	for i, ie := range out {
		if ie.Size() != 5 {
			t.Errorf("cluster %d size = %d, want 5", i, ie.Size())
		}
	}
}
