package topk

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/model"
)

// TopKCT computes a top-k list of candidate targets following Fig. 5 of
// the paper: per-attribute value heaps feed buffers B1..Bm, a priority
// queue pops assignments in non-increasing score order, each popped
// assignment is verified by the chase-based check, and its m neighbours
// (each differing in a single attribute, taking the next-ranked value)
// are pushed. The enumeration visits assignments in exactly best-first
// order, so it terminates as soon as k candidates are verified (early
// termination), and only pops each heap as far as the k-th result
// requires (instance optimality w.r.t. heap pops).
//
// te must be the deduced target of a Church-Rosser grounding g; its
// non-null attributes are fixed in every candidate. The returned
// candidates are in non-increasing score order.
func TopKCT(g *chase.Grounding, te *model.Tuple, pref Preference) ([]Candidate, Stats, error) {
	return topKCT(newProblem(g, te, pref))
}

// topKCT runs TopKCT on a prepared problem.
func topKCT(p *problem) ([]Candidate, Stats, error) {
	cands, err := topkSearch(p, p.pref.K, true)
	return cands, p.stats, err
}

// topkSearch runs the Fig. 5 enumeration; withCheck false skips the
// candidate verification (used by TopKCTh's first phase).
func topkSearch(p *problem, k int, withCheck bool) ([]Candidate, error) {
	if k <= 0 {
		return nil, fmt.Errorf("topk: k must be positive, got %d", k)
	}
	m := len(p.zAttr)
	base := p.baseScore()
	if m == 0 {
		// te is already complete; it is its own single candidate.
		if !withCheck || p.check(p.te) {
			return []Candidate{{Tuple: p.te.Clone(), Score: base}}, nil
		}
		return nil, nil
	}

	// Build the heaps H1..Hm and pop the top value of each into the
	// buffers (Fig. 5 line 2).
	heaps := make([]*valueHeap, m)
	bufs := make([][]scoredValue, m)
	for i := 0; i < m; i++ {
		heaps[i] = newValueHeap(p.lists[i], &p.stats.Pops)
		top, ok := heaps[i].Pop()
		if !ok {
			return nil, fmt.Errorf("topk: attribute %s has an empty candidate domain",
				p.g.Schema().Attr(p.zAttr[i]))
		}
		bufs[i] = []scoredValue{top}
	}

	mk := func(pos []int) *object {
		o := &object{pos: pos, vals: make([]scoredValue, m), w: base}
		for i, pi := range pos {
			o.vals[i] = bufs[i][pi]
			o.w += o.vals[i].w
			o.posSum += pi
		}
		o.key = zKey(o.vals)
		return o
	}

	seen := map[string]bool{}
	var q pairingHeap
	first := mk(make([]int, m))
	seen[first.key] = true
	q.Push(first)
	p.stats.Generated++

	// Pop the best queued assignment, expand its m single-attribute
	// successors and verify it (Fig. 5 lines 10-15).
	var out []Candidate
	for len(out) < k && !p.exhausted() {
		o, ok := q.Pop()
		if !ok {
			break
		}
		for i := 0; i < m; i++ {
			next := o.pos[i] + 1
			if next >= len(bufs[i]) {
				v, ok := heaps[i].Pop()
				if !ok {
					continue // this attribute's domain is exhausted
				}
				bufs[i] = append(bufs[i], v)
			}
			pos := append([]int(nil), o.pos...)
			pos[i] = next
			o2 := mk(pos)
			if !seen[o2.key] {
				seen[o2.key] = true
				q.Push(o2)
				p.stats.Generated++
			}
		}
		t := p.assemble(o.vals)
		if !withCheck || p.check(t) {
			out = append(out, Candidate{Tuple: t, Score: o.w})
		}
	}
	return out, nil
}

// TopKCTh is the PTIME heuristic of Section 6.3: it first enumerates the
// k best assignments without verification, then greedily repairs each
// one attribute at a time — fixing the highest-ranked value that keeps
// the partial template chase-consistent — until the tuple passes the
// candidate check. Tuples that cannot be repaired are dropped, so the
// result is always a set of true candidate targets, though not
// necessarily the k highest-scoring ones (the cost/quality trade-off the
// paper describes). When the MaxChecks budget runs out mid-repair, that
// tuple is dropped and the candidates already repaired are returned.
func TopKCTh(g *chase.Grounding, te *model.Tuple, pref Preference) ([]Candidate, Stats, error) {
	return topKCTh(newProblem(g, te, pref))
}

// topKCTh runs TopKCTh on a prepared problem.
func topKCTh(p *problem) ([]Candidate, Stats, error) {
	raw, err := topkSearch(p, p.pref.K, false)
	if err != nil {
		return nil, p.stats, err
	}
	var out []Candidate
	dedup := map[string]bool{}
	for _, c := range raw {
		if p.exhausted() {
			break
		}
		t, ok := p.repair(c.Tuple)
		if !ok {
			continue
		}
		k := t.Key()
		if dedup[k] {
			continue
		}
		dedup[k] = true
		out = append(out, Candidate{Tuple: t, Score: p.score(t)})
	}
	// Keep non-increasing score order after repairs.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && candLess(out[j-1], out[j]); j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	if len(out) > p.pref.K {
		out = out[:p.pref.K]
	}
	return out, p.stats, nil
}

func candLess(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Tuple.Key() > b.Tuple.Key()
}

// score computes p({t}).
func (p *problem) score(t *model.Tuple) float64 {
	s := 0.0
	schema := p.g.Schema()
	for a := 0; a < schema.Arity(); a++ {
		if v := t.At(a); !v.IsNull() {
			s += p.weight(a, v, p.idOf(t, a))
		}
	}
	return s
}

// repair greedily fixes the Z attributes of t one at a time: each
// attribute takes the first value (t's own value first, then the ranked
// list) whose partial template passes the chase check. The final step
// checks the complete tuple, so success implies candidacy. Probing
// stops once the MaxChecks budget is spent, and the half-repaired
// tuple is dropped.
func (p *problem) repair(t *model.Tuple) (*model.Tuple, bool) {
	partial := p.te.Clone()
	// try sets attribute a of partial to v and keeps it when the
	// partial template passes the check.
	try := func(a int, v model.Value, id uint32) bool {
		if p.exhausted() {
			return false
		}
		partial.SetAtID(a, v, p.dict, id)
		if p.check(partial) {
			return true
		}
		partial.SetAt(a, model.NullValue())
		return false
	}
	for i, a := range p.zAttr {
		own := t.At(a)
		fixed := try(a, own, p.idOf(t, a))
		// Keys, not IDs, tell the list's values from t's own: two
		// Domains values the dictionary lacks share model.NoID.
		ownKey := own.Key()
		for _, sv := range p.lists[i] {
			if fixed || p.exhausted() {
				break
			}
			if sv.key != ownKey {
				fixed = try(a, sv.v, sv.id)
			}
		}
		if !fixed {
			return nil, false
		}
	}
	return partial, true
}

// idOf resolves the dictionary ID of t's value at position a, using
// the tuple's cached row when present (candidates assembled by the
// search always carry one). An unknown value maps to the NoID
// sentinel, which no value of the grounding's groups carries, without
// growing the dictionary.
func (p *problem) idOf(t *model.Tuple, a int) uint32 {
	if id, ok := t.IDIn(p.dict, a); ok {
		return id
	}
	return p.lookup(t.At(a))
}

// lookup is v's ID in the grounding's dictionary, or model.NoID when
// the dictionary lacks v.
func (p *problem) lookup(v model.Value) uint32 {
	if id, ok := p.dict.Lookup(v); ok {
		return id
	}
	return model.NoID
}
