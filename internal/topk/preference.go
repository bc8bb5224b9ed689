// Package topk implements the top-k candidate-target algorithms of
// Section 6 of the paper: RankJoinCT (an extension of top-k rank-join),
// TopKCT (a priority-queue lattice enumeration that needs no ranked
// input and is instance optimal in heap pops), and TopKCTh (a PTIME
// greedy heuristic).
//
// Given a Church-Rosser specification whose deduced target te is
// incomplete, a candidate target instantiates the null attributes of te
// with values from the attributes' active domains (plus one default
// value ⊥ standing for "some value outside the data") such that the
// revised specification is still Church-Rosser — verified by the chase
// (the `check` of Section 6.1). Candidates are ranked by a monotone
// preference score p summing per-value weights w_Ai(v).
package topk

import (
	"sort"

	"repro/internal/chase"
	"repro/internal/model"
)

// Preference is the preference model (k, p(·)) of Section 3.
type Preference struct {
	// K is the number of candidates requested.
	K int
	// Weight is w_Ai(v), the score of value v in attribute attr. Nil
	// scores v by the number of tuples of Ie carrying it in attr
	// (values only in master data, and ⊥ unless Ie carries it, score 0),
	// the preference of the paper's experiments.
	Weight func(attr string, v model.Value) float64
	// Domains optionally fixes the candidate values of an attribute
	// (e.g. {true, false} for a Boolean attribute). Attributes not
	// listed use the active domain of Ie ∪ Im plus ⊥.
	Domains map[string][]model.Value
	// MaxChecks bounds the number of chase-based candidate checks one
	// search may spend (0 = unlimited). The candidate-target problem is
	// NP-complete (Theorem 4), and adversarial instances make the exact
	// algorithms wade through large plateaus of equal-score failing
	// assignments; when the budget is exhausted the candidates found so
	// far are returned.
	MaxChecks int
	// MaxDomain caps each attribute's ranked candidate list (0 = 64).
	// Values carried by the entity instance always survive the cap; the
	// tail of zero-weight master-only values — interchangeable with ⊥
	// unless a master rule references them — is truncated. This guards
	// the search against master relations whose columns would otherwise
	// contribute thousands of candidate values per attribute.
	MaxDomain int
}

// scoredValue is one ranked-list entry. The value's dictionary ID is
// resolved once when the list is built, so every candidate assembled
// from the list carries a cached ID row and the chase-based check
// never hashes a value; its Key, computed once with the list, is what
// the sorts, the heaps and zKey compare. A Domains value the
// grounding's dictionary lacks carries model.NoID.
type scoredValue struct {
	v   model.Value
	w   float64
	id  uint32
	key string
}

// bottomKey is ⊥'s Key.
var bottomKey = model.Bottom.Key()

// Candidate is one verified candidate target.
type Candidate struct {
	Tuple *model.Tuple
	Score float64
}

// Stats reports the work an algorithm performed; the instance-optimality
// tests and the efficiency experiments read these.
type Stats struct {
	// Checks counts invocations of the candidate check (chase runs).
	Checks int
	// Pops counts value-heap (ranked-list) accesses.
	Pops int
	// Generated counts join combinations materialised (RankJoinCT) or
	// queue objects created (TopKCT).
	Generated int
}

// problem is the shared search state for all three algorithms.
type problem struct {
	g     *chase.Grounding
	te    *model.Tuple // deduced (incomplete) target
	pref  Preference
	zAttr []int           // schema positions of null attributes of te
	lists [][]scoredValue // per zAttr, descending weight
	dict  *model.Dict     // the grounding's value dictionary, read only
	stats Stats
}

// newProblem derives the search space: the null attributes Z of te and
// their ranked value lists, every list value carrying its ID in the
// grounding's dictionary. It never interns: te's values and the
// instance's come from the grounding, master values and ⊥ from the
// Shared's base.
func newProblem(g *chase.Grounding, te *model.Tuple, pref Preference) *problem {
	p := &problem{g: g, te: te, pref: pref, dict: g.Dict()}
	// Resolve the deduced target once (on a clone, so the caller's tuple
	// is not touched): candidates are assembled from clones of p.te, so
	// this makes their KNOWN attributes dictionary hits by cache, not
	// per-check probes — the Z attributes get their IDs from the ranked
	// lists below.
	p.te = te.Clone().Resolve(p.dict)
	maxDomain := pref.MaxDomain
	if maxDomain == 0 {
		maxDomain = 64
	}
	schema := g.Schema()
	for a := 0; a < schema.Arity(); a++ {
		if !te.At(a).IsNull() {
			continue
		}
		var list []scoredValue
		if dom, ok := pref.Domains[schema.Attr(a)]; ok {
			list = make([]scoredValue, 0, len(dom))
			for _, v := range dom {
				list = append(list, p.scored(a, v, p.lookup(v), v.Key()))
			}
		} else {
			list = p.activeDomain(a, maxDomain)
		}
		sortScored(list)
		p.zAttr = append(p.zAttr, a)
		p.lists = append(p.lists, list)
	}
	return p
}

// activeDomain lists attribute a's candidate values in
// model.ActiveDomain's order: the values Ie carries, by occurrence
// count descending, then String, then first occurrence; then the
// Shared's ranked master column, minus the values Ie carries, while
// the list holds fewer than maxDomain entries (the interchangeable
// zero-count tail is truncated, Ie's values always survive); then ⊥.
// Ie's values carry their IDs, counts and first occurrences from the
// grounding's ID groups, master values their base IDs from the ranked
// column.
func (p *problem) activeDomain(a, maxDomain int) []scoredValue {
	type occ struct {
		v            model.Value
		id           uint32
		count, first int
		str, key     string
	}
	occs := make([]occ, p.g.NumDistinct(a))
	keys := make([]string, len(occs))
	for k := range occs {
		v, id, count, first := p.g.Distinct(a, k)
		occs[k] = occ{v: v, id: id, count: count, first: first, str: v.String(), key: v.Key()}
		keys[k] = occs[k].key
	}
	sort.Slice(occs, func(i, j int) bool {
		x, y := &occs[i], &occs[j]
		if x.count != y.count {
			return x.count > y.count
		}
		if x.str != y.str {
			return x.str < y.str
		}
		return x.first < y.first
	})
	sort.Strings(keys)
	col := p.g.MasterColumn(a)
	list := make([]scoredValue, 0, min(max(len(occs), maxDomain), len(occs)+len(col))+1)
	for _, o := range occs {
		list = append(list, p.scored(a, o.v, o.id, o.key))
	}
	for _, mv := range col {
		if len(list) >= maxDomain {
			break
		}
		if i := sort.SearchStrings(keys, mv.Key); i < len(keys) && keys[i] == mv.Key {
			continue
		}
		list = append(list, p.scored(a, mv.Value, mv.ID, mv.Key))
	}
	return append(list, p.scored(a, model.Bottom, p.lookup(model.Bottom), bottomKey))
}

// scored is the list entry for v at schema position a, given its
// dictionary ID and Key.
func (p *problem) scored(a int, v model.Value, id uint32, key string) scoredValue {
	return scoredValue{v: v, w: p.weight(a, v, id), id: id, key: key}
}

// weight is w_A(v) for the value v, with dictionary ID id, at schema
// position a: the caller's Weight, or the number of tuples of Ie
// carrying v at a, read from the grounding's ID groups.
func (p *problem) weight(a int, v model.Value, id uint32) float64 {
	if p.pref.Weight != nil {
		return p.pref.Weight(p.g.Schema().Attr(a), v)
	}
	return float64(p.g.Count(a, id))
}

// sortScored orders by descending weight, ties broken by value key for
// determinism.
func sortScored(list []scoredValue) {
	// Insertion sort: lists are small, and under the default weight
	// already in descending count order with a String-ordered tail.
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && scoredLess(list[j-1], list[j]); j-- {
			list[j-1], list[j] = list[j], list[j-1]
		}
	}
}

// scoredLess reports a < b in ranking order (higher weight first).
func scoredLess(a, b scoredValue) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	return a.key > b.key
}

// baseScore is the score contribution of the non-null attributes of te;
// it is constant across candidates.
func (p *problem) baseScore() float64 { return p.score(p.te) }

// assemble builds a complete tuple from te and the chosen Z values,
// carrying each value's cached dictionary ID so the chase check that
// receives it resolves every attribute without a dictionary probe.
func (p *problem) assemble(zv []scoredValue) *model.Tuple {
	t := p.te.Clone()
	for i, a := range p.zAttr {
		t.SetAtID(a, zv[i].v, p.dict, zv[i].id)
	}
	return t
}

// check verifies a candidate via the chase (Section 6.1): the revised
// specification with t as the initial template must be Church-Rosser.
// It runs on one of the grounding's idle checkers, so a check allocates
// no engine state.
func (p *problem) check(t *model.Tuple) bool {
	p.stats.Checks++
	return p.g.Check(t)
}

// exhausted reports whether the check budget has been spent.
func (p *problem) exhausted() bool {
	return p.pref.MaxChecks > 0 && p.stats.Checks >= p.pref.MaxChecks
}

// zKey identifies a Z-assignment for duplicate suppression and as the
// deterministic last tie-break of the priority queues. It concatenates
// the entries' Keys, computed once with the lists — NOT dictionary
// IDs, which are assignment-order dependent and would make
// tie-breaking (and so candidate order) run-dependent.
func zKey(zv []scoredValue) string {
	k := ""
	for i, sv := range zv {
		if i > 0 {
			k += "\x1f"
		}
		k += sv.key
	}
	return k
}
