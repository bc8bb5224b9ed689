package chase

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// Verdict caching (DESIGN.md invariant 8).
//
// A candidate check is a pure function of (grounding version, template
// value-ID row): the chase is deterministic, a Grounding is immutable
// after construction, and every template-dependent comparison the
// engine performs is decided by the template's interned IDs — IDs
// equate values up to model.Value.Norm, and Norm-equal values are
// indistinguishable to every chase comparison (Op.Eval compares
// normalised semantics; Eq/Ne compare the IDs themselves). So a map
// from packed ID rows to verdicts, hung off the version, memoises
// checks with no invalidation protocol at all: a new version gets a
// new (empty) map, a superseded version's map dies with it, and an
// in-flight checker pinned to an old version keeps hitting that
// version's map — which is still correct for the evidence that
// version answers for.
//
// Uncacheable templates exist: a caller-built template, or a top-k
// candidate built from a Preference.Domains value, may carry a value
// neither the base dictionary nor the entity's overlay holds, which
// resolves to the model.NoID sentinel. Two DISTINCT unknown values
// would pack to the same key, so rows containing an unknown value are
// not cached — verdictKey reports them uncacheable and the check simply
// runs (cache_fuzz_test.go pins that no two distinct cacheable rows
// share a key). Every other candidate the top-k search assembles
// carries a resolved ID row and is cacheable.

// verdictCap bounds one version's verdict map: generous next to any
// real candidate search (a top-k run checks hundreds to thousands of
// candidates), small next to the grounding it hangs off. A full map
// refuses inserts and never evicts, which keeps cached-vs-uncached
// equivalence trivially deterministic: an entry either is the verdict
// the chase computes, or is absent.
const verdictCap = 1 << 16

// verdictCounts is the hit/miss accounting that every version of one
// grounding shares, so it spans an entity's whole life while each
// version's entries go with that version.
type verdictCounts struct {
	hits, misses atomic.Int64
}

// verdictCache is one grounding version's verdict memo: each entry is
// a check's conflict description, "" for Church-Rosser. counts is nil
// when Options.DisableVerdictCache was set; m is nil until the first
// cacheable check puts a verdict, so grounding, Extend and Run never
// allocate it. mu guards m; checks on one version may run on any
// number of goroutines.
type verdictCache struct {
	counts *verdictCounts
	mu     sync.Mutex
	m      map[string]string
}

// get returns the conflict stored under key and whether one exists,
// counting a hit or a miss. The []byte key is looked up without
// converting it to a string, so a lookup allocates nothing.
func (c *verdictCache) get(key []byte) (string, bool) {
	c.mu.Lock()
	conflict, ok := c.m[string(key)]
	c.mu.Unlock()
	if ok {
		c.counts.hits.Add(1)
	} else {
		c.counts.misses.Add(1)
	}
	return conflict, ok
}

// put stores conflict under key unless the map holds verdictCap
// entries. Concurrent puts of one key are benign: verdicts are
// deterministic, so racing checks store the same value.
func (c *verdictCache) put(key []byte, conflict string) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]string)
	}
	if len(c.m) < verdictCap {
		c.m[string(key)] = conflict
	}
	c.mu.Unlock()
}

// VerdictStats is a point-in-time view of a grounding's verdict-cache
// accounting. Hits and Misses are cumulative across the grounding's
// whole version chain; Entries counts the viewed version's entries
// only (earlier versions' entries died with them).
type VerdictStats struct {
	Hits    int64
	Misses  int64
	Entries int64
}

// verdictKey packs template's value-ID row into buf (reused across
// calls) as nattr big-endian uint32s: null attributes pack as
// model.NullID, known values as their dictionary ID. It reports
// ok=false — template not cacheable — when the template carries a
// value the dictionary has never seen (see the package comment above).
// A nil template packs as the all-null row, matching runWith's
// treatment of nil.
//
// Resolution order mirrors runWith exactly (cached ID row first, then
// a non-interning dictionary lookup), and the dictionary is
// append-only, so the key always names the same IDs the check itself
// would push.
func (g *Grounding) verdictKey(template *model.Tuple, buf []byte) ([]byte, bool) {
	buf = buf[:0]
	for a := 0; a < g.nattr; a++ {
		vid := model.NullID
		if template != nil {
			if v := template.At(a); !v.IsNull() {
				var ok bool
				if vid, ok = template.IDIn(g.dict, a); !ok {
					if vid, ok = g.dict.Lookup(v); !ok {
						return buf, false
					}
				}
			}
		}
		buf = binary.BigEndian.AppendUint32(buf, vid)
	}
	return buf, true
}

// VerdictCacheStats returns this grounding's verdict-cache accounting:
// hits and misses cumulative across the whole version chain, entries
// counting the receiver's version only. All zero when the cache is
// disabled.
func (g *Grounding) VerdictCacheStats() VerdictStats {
	c := &g.verdicts
	if c.counts == nil {
		return VerdictStats{}
	}
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	return VerdictStats{Hits: c.counts.hits.Load(), Misses: c.counts.misses.Load(), Entries: int64(n)}
}
