package chase

import (
	"math"
	"slices"
	"sync"

	"repro/internal/model"
)

// Per-version value indexes.
//
// A grounding version indexes its instance three ways, all on integers:
// the value ID of every cell (the ID rows), the value-equality classes
// of every attribute's non-null tuples (the groups feeding the axioms
// ϕ8/ϕ9 and the top-k statistics), and, for each attribute some
// compiled guard compares in order between two tuples, the rank of each
// tuple's value among the attribute's distinct values. All three live in
// one []uint32 slab per version, cut into:
//
//	ids      nattr·n  ids[a·n+i]: tuple i's value ID on attribute a
//	grpOff   nattr+1  attribute a's groups are k ∈ [grpOff[a], grpOff[a+1])
//	gIDs     G        group k's value ID, ascending within an attribute
//	memOff   G+1      group k's members are members[memOff[k]:memOff[k+1]]
//	members  M        tuple indices, ascending within a group
//	rankOK   R        1 when rank slot s is valid in this version
//	ranks    R·n      ranks[s·n+i]: tuple i's rank on slot s (0 = null)
//
// where G is the number of groups, M the number of non-null cells and R
// the number of rank slots the Shared compiled. The slab is written
// once, while the version is built, and read-only afterwards.

// layout allocates the version's slab for G groups, M non-null cells
// and the Shared's rank slots, and cuts it into the index slices.
//
//relacc:grounding-builder
func (g *Grounding) layout(groups, cells int) {
	n, na, nr := g.n, g.nattr, len(g.rankAttrs)
	slab := make([]uint32, na*n+(na+1)+groups+(groups+1)+cells+nr+nr*n)
	cut := func(k int) []uint32 {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	g.ids = cut(na * n)
	g.grpOff = cut(na + 1)
	g.gIDs = cut(groups)
	g.memOff = cut(groups + 1)
	g.members = cut(cells)
	g.rankOK = cut(nr)
	g.ranks = cut(nr * n)
}

// idRow returns attribute a's ID row: the value ID of every tuple.
func (g *Grounding) idRow(a int) []uint32 { return g.ids[a*g.n : (a+1)*g.n] }

// valID returns the value ID of tuple i on attribute a (0 = null).
func (g *Grounding) valID(a, i int32) uint32 { return g.ids[int(a)*g.n+int(i)] }

// attrGroups returns the value IDs of attribute a's groups, ascending,
// and the index of the first of them.
func (g *Grounding) attrGroups(a int) (ids []uint32, first uint32) {
	lo, hi := g.grpOff[a], g.grpOff[a+1]
	return g.gIDs[lo:hi], lo
}

// member returns the tuple indices of group k, ascending.
func (g *Grounding) member(k uint32) []uint32 { return g.members[g.memOff[k]:g.memOff[k+1]] }

// groupFor returns the tuple indices whose attr value has dictionary
// ID id (the ϕ8/ϕ9 equality class of that value), or nil when no tuple
// carries it. Groups per attribute are few, so a branch-light binary
// search beats hashing — and allocates nothing.
func (g *Grounding) groupFor(attr int32, id uint32) []uint32 {
	ids, first := g.attrGroups(int(attr))
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ids) && ids[lo] == id {
		return g.member(first + uint32(lo))
	}
	return nil
}

// buildScratch holds a grounding builder's temporary buffers. They are
// pooled across builds, so grounding many small entities allocates only
// what each version keeps.
type buildScratch struct {
	newIDs []uint32      // the new cells' IDs, attribute-major
	keys   []uint64      // id<<32 | tuple, per attribute sorted
	keyOff []int         // attribute a's keys are keys[keyOff[a]:keyOff[a+1]]
	ok2    []bool        // groundForm1's per-t2 guard results
	vals   []model.Value // rankValues: one value per group
	order  []uint32      // rankValues: groups in value order
	grank  []uint32      // rankValues: each group's rank
}

var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// grow returns (*buf)[:n], reallocating when the capacity is short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// indexValues builds this version's slab from p's: p's ID rows are
// copied, the new tuples' values resolved against the overlay (a cached
// base ID when the tuple carries one, an overlay insert otherwise; the
// values themselves stay in the tuples, read through val), and the
// groups merged — per attribute, p's groups in ID order, each followed
// by its new members, with the new values' groups slotted in between.
// The new cells are sorted as id<<32|tuple keys, so a group's new
// members come out ascending after its old ones. p's slab, which
// in-flight checkers on the old version may be reading, is never
// written. Cells intern attribute by attribute, tuple by tuple, so
// overlay IDs are issued in that order.
//
//relacc:grounding-builder
func (g *Grounding) indexValues(p *Grounding, sc *buildScratch) {
	n, na, oldN := g.n, g.nattr, p.n
	d := n - oldN
	newIDs := grow(&sc.newIDs, na*d)
	keyOff := grow(&sc.keyOff, na+1)
	keys := sc.keys[:0]
	for a := 0; a < na; a++ {
		keyOff[a] = len(keys)
		col := newIDs[a*d : (a+1)*d]
		g.dict.InternAt(g.ie.Tuples()[oldN:], a, col)
		for k, id := range col {
			if id != model.NullID {
				keys = append(keys, uint64(id)<<32|uint64(oldN+k))
			}
		}
		slices.Sort(keys[keyOff[a]:])
	}
	keyOff[na] = len(keys)
	sc.keys = keys

	groups := 0
	for a := 0; a < na; a++ {
		old, _ := p.attrGroups(a)
		groups += len(old) + newGroups(old, keys[keyOff[a]:keyOff[a+1]])
	}
	g.layout(groups, len(p.members)+len(keys))

	for a := 0; a < na; a++ {
		row := g.idRow(a)
		copy(row, p.ids[a*oldN:(a+1)*oldN])
		copy(row[oldN:], newIDs[a*d:(a+1)*d])
	}
	k, m := uint32(0), uint32(0)
	for a := 0; a < na; a++ {
		g.grpOff[a] = k
		pk, pEnd := p.grpOff[a], p.grpOff[a+1]
		nk := keys[keyOff[a]:keyOff[a+1]]
		for pk < pEnd || len(nk) > 0 {
			var id uint32
			if len(nk) == 0 || (pk < pEnd && p.gIDs[pk] < uint32(nk[0]>>32)) {
				id = p.gIDs[pk]
			} else {
				id = uint32(nk[0] >> 32)
			}
			g.gIDs[k], g.memOff[k] = id, m
			if pk < pEnd && p.gIDs[pk] == id {
				m += uint32(copy(g.members[m:], p.member(pk)))
				pk++
			}
			for ; len(nk) > 0 && uint32(nk[0]>>32) == id; nk = nk[1:] {
				g.members[m] = uint32(nk[0])
				m++
			}
			k++
		}
	}
	g.grpOff[na], g.memOff[k] = k, m
	g.rankValues(sc)
}

// newGroups counts the distinct IDs among the sorted keys that the
// sorted group IDs old lack.
func newGroups(old []uint32, keys []uint64) int {
	c, o := 0, 0
	for x := 0; x < len(keys); {
		id := uint32(keys[x] >> 32)
		for x < len(keys) && uint32(keys[x]>>32) == id {
			x++
		}
		for o < len(old) && old[o] < id {
			o++
		}
		if o == len(old) || old[o] != id {
			c++
		}
	}
	return c
}

// rankValues ranks, for every rank slot, its attribute's distinct values
// by Value.Compare — dense ranks from 1, equal values sharing one — and
// writes each tuple's rank into the slot's row, null tuples keeping 0.
// An attribute holding a NaN, or values of kinds Compare cannot order
// against each other, is left unranked (rankOK 0), and guards on it
// compare values instead. Ranks are per version: a new value may fall
// between old ones.
//
//relacc:grounding-builder
func (g *Grounding) rankValues(sc *buildScratch) {
	for s, a := range g.rankAttrs {
		ids, first := g.attrGroups(int(a))
		vals, order := sc.vals[:0], sc.order[:0]
		class, ok := 0, true
		for k := range ids {
			v := g.val(a, int32(g.member(first + uint32(k))[0]))
			c := compareClass(v)
			if c == 0 || (class != 0 && c != class) {
				ok = false
				break
			}
			class = c
			vals = append(vals, v)
			order = append(order, uint32(k))
		}
		if ok {
			slices.SortFunc(order, func(x, y uint32) int {
				c, _ := vals[x].Compare(vals[y])
				return c
			})
			grank := grow(&sc.grank, len(ids))
			r := uint32(0)
			for x, k := range order {
				if x == 0 {
					r = 1
				} else if c, _ := vals[order[x-1]].Compare(vals[k]); c != 0 {
					r++
				}
				grank[k] = r
			}
			row := g.ranks[s*g.n : (s+1)*g.n]
			for k := range ids {
				for _, i := range g.member(first + uint32(k)) {
					row[i] = grank[k]
				}
			}
			g.rankOK[s] = 1
		}
		clear(vals) // drop the strings they reference
		sc.vals, sc.order = vals[:0], order[:0]
	}
}

// compareClass names the set of kinds a non-null value orders against
// under Value.Compare: 1 strings, 2 numbers, 3 booleans; 0 for NaN,
// which orders against nothing consistently.
func compareClass(v model.Value) int {
	switch v.Kind() {
	case model.String:
		return 1
	case model.Int:
		return 2
	case model.Float:
		if math.IsNaN(v.Float()) {
			return 0
		}
		return 2
	case model.Bool:
		return 3
	}
	return 0
}
