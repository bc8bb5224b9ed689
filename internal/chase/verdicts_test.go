package chase

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/rule"
)

// verdictKeyOf is a test key: 8 bytes, unlike any key a template packs.
func verdictKeyOf(i int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(i)) }

// twoTupleGrounding grounds two tuples under one order rule, with the
// verdict cache on unless disabled.
func twoTupleGrounding(t *testing.T, disable bool) *Grounding {
	t.Helper()
	s := model.MustSchema("r", "a", "b")
	rules := rule.MustSet(s, nil,
		&rule.Form1{RuleName: "up",
			LHS: []rule.Pred{rule.Cmp(rule.T1("a"), rule.Lt, rule.T2("a"))}, RHS: "b"},
	)
	ie := model.NewEntityInstance(s)
	ie.MustAdd(model.MustTuple(s, model.I(1), model.NullValue()))
	ie.MustAdd(model.MustTuple(s, model.I(2), model.S("x")))
	g, err := NewGrounding(Spec{Ie: ie, Rules: rules}, Options{DisableVerdictCache: disable})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestVerdictMapBuiltByFirstCheck: grounding, Extend and Run leave a
// version's verdict map unallocated; the first cacheable check builds
// it, and a disabled cache never does.
func TestVerdictMapBuiltByFirstCheck(t *testing.T) {
	g := twoTupleGrounding(t, false)
	g.Run(nil)
	ext, err := g.Extend(model.MustTuple(g.Schema(), model.I(3), model.S("y")))
	if err != nil {
		t.Fatal(err)
	}
	ext.Run(nil)
	for name, v := range map[string]*Grounding{"fresh": g, "extended": ext} {
		if v.verdicts.m != nil {
			t.Fatalf("%s version: verdict map allocated before any check", name)
		}
	}
	if !ext.NewChecker().Check(nil) {
		t.Fatal("the extended instance must be Church-Rosser")
	}
	if ext.verdicts.m == nil || len(ext.verdicts.m) != 1 {
		t.Fatalf("first check left the map at %v, want one entry", ext.verdicts.m)
	}
	if g.verdicts.m != nil {
		t.Fatal("a check on the successor built the parent's map")
	}
	if st := ext.VerdictCacheStats(); st != (VerdictStats{Misses: 1, Entries: 1}) {
		t.Fatalf("stats after one check: %+v", st)
	}

	off := twoTupleGrounding(t, true)
	off.NewChecker().Check(nil)
	if off.verdicts.m != nil {
		t.Fatal("a disabled verdict cache built its map")
	}
}

// TestVerdictCacheRefusesWhenFull: past verdictCap entries a put is
// refused, never an eviction, and whatever got in stays correct.
func TestVerdictCacheRefusesWhenFull(t *testing.T) {
	c := &verdictCache{counts: new(verdictCounts)}
	const over = 100
	for i := 0; i < verdictCap+over; i++ {
		c.put(verdictKeyOf(i), fmt.Sprint(i))
	}
	if len(c.m) != verdictCap {
		t.Fatalf("map holds %d entries after %d puts, want %d", len(c.m), verdictCap+over, verdictCap)
	}
	kept := 0
	for i := 0; i < verdictCap+over; i++ {
		if conflict, ok := c.get(verdictKeyOf(i)); ok {
			kept++
			if conflict != fmt.Sprint(i) {
				t.Fatalf("key %d holds %q", i, conflict)
			}
		} else if i < verdictCap {
			t.Fatalf("key %d, put before the map filled, is missing", i)
		}
	}
	if kept != verdictCap {
		t.Fatalf("%d keys hit, want %d", kept, verdictCap)
	}
}

// TestVerdictCountersSurviveExtend: hits and misses are cumulative
// along a version chain, while each version starts with an empty map.
func TestVerdictCountersSurviveExtend(t *testing.T) {
	g := twoTupleGrounding(t, false)
	c := g.NewChecker()
	c.Check(nil) // miss
	c.Check(nil) // hit
	ext, err := g.Extend(model.MustTuple(g.Schema(), model.I(3), model.S("y")))
	if err != nil {
		t.Fatal(err)
	}
	if ext.verdicts.counts != g.verdicts.counts {
		t.Fatal("the successor does not share the chain's counters")
	}
	if st := ext.VerdictCacheStats(); st != (VerdictStats{Hits: 1, Misses: 1}) {
		t.Fatalf("successor stats %+v, want the chain's 1 hit and 1 miss and no entry", st)
	}
	ext.NewChecker().Check(nil) // a miss: the parent's verdict stays with the parent
	if st := ext.VerdictCacheStats(); st != (VerdictStats{Hits: 1, Misses: 2, Entries: 1}) {
		t.Fatalf("successor stats %+v after its first check", st)
	}
	if st := g.VerdictCacheStats(); st != (VerdictStats{Hits: 1, Misses: 2, Entries: 1}) {
		t.Fatalf("parent stats %+v", st)
	}
}

// TestVerdictCacheConcurrent: gets and puts on one version from many
// goroutines are race-free (run under -race) and count every lookup.
func TestVerdictCacheConcurrent(t *testing.T) {
	c := &verdictCache{counts: new(verdictCounts)}
	const (
		goroutines = 8
		rounds     = 20
		keys       = 256
	)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < keys; i++ {
					if conflict, ok := c.get(verdictKeyOf(i)); ok && conflict != fmt.Sprint(i) {
						t.Errorf("key %d holds %q", i, conflict)
						return
					}
					c.put(verdictKeyOf(i), fmt.Sprint(i))
				}
			}
		}()
	}
	wg.Wait()
	if len(c.m) != keys {
		t.Fatalf("map holds %d entries, want %d", len(c.m), keys)
	}
	if n := c.counts.hits.Load() + c.counts.misses.Load(); n != goroutines*rounds*keys {
		t.Fatalf("counted %d lookups, want %d", n, goroutines*rounds*keys)
	}
}
