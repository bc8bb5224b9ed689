package topk

import (
	"errors"
	"fmt"

	"repro/internal/chase"
	"repro/internal/model"
)

// ErrBudget reports that RankJoinCT hit its MaxGenerated bound before
// finding k candidates; the candidates found so far are still returned.
// This is the materialisation blow-up the paper criticises RankJoinCT
// for (Section 6.1) — TopKCT exists to avoid it.
var ErrBudget = errors.New("topk: RankJoinCT exceeded its join-state budget")

// RankJoinOptions bounds RankJoinCT's join-state materialisation, which
// the paper identifies as its weakness (Section 6.1): the algorithm
// buffers the cross product of the list prefixes it has read.
type RankJoinOptions struct {
	// MaxGenerated caps the number of buffered join combinations;
	// 0 means 4,000,000 and negative values are rejected. Exceeding
	// the cap aborts with ErrBudget, returning the candidates verified
	// so far together with the Stats of the aborted search.
	MaxGenerated int
}

// RankJoinCT computes top-k candidate targets by extending a top-k
// rank-join (HRJN-style, [Ilyas et al. VLDB'04; Schnaitter & Polyzotis
// PODS'08]) over the ranked value lists of the null attributes: lists
// are read in round-robin, every new value joins with all previously
// seen values of the other lists, and a combination is emitted — then
// verified with the chase-based check — once its score reaches the
// rank-join threshold, which guarantees no unseen combination can score
// higher. It is exact (same output as TopKCT) but materialises
// exponentially many combinations, which TopKCT avoids.
func RankJoinCT(g *chase.Grounding, te *model.Tuple, pref Preference) ([]Candidate, Stats, error) {
	return RankJoinCTOpts(g, te, pref, RankJoinOptions{})
}

// RankJoinCTOpts is RankJoinCT with explicit resource bounds.
func RankJoinCTOpts(g *chase.Grounding, te *model.Tuple, pref Preference, opts RankJoinOptions) ([]Candidate, Stats, error) {
	return rankJoinCT(newProblem(g, te, pref), opts)
}

// rankJoinCT runs RankJoinCT on a prepared problem.
func rankJoinCT(p *problem, opts RankJoinOptions) ([]Candidate, Stats, error) {
	k := p.pref.K
	if k <= 0 {
		return nil, p.stats, fmt.Errorf("topk: k must be positive, got %d", k)
	}
	maxGen := opts.MaxGenerated
	if maxGen < 0 {
		return nil, p.stats, fmt.Errorf("topk: MaxGenerated must be >= 0, got %d", maxGen)
	}
	if maxGen == 0 {
		maxGen = 4_000_000
	}
	m := len(p.zAttr)
	base := p.baseScore()
	if m == 0 {
		if p.check(p.te) {
			return []Candidate{{Tuple: p.te.Clone(), Score: base}}, p.stats, nil
		}
		return nil, p.stats, nil
	}
	for i, l := range p.lists {
		if len(l) == 0 {
			return nil, p.stats, fmt.Errorf("topk: attribute %s has an empty candidate domain",
				p.g.Schema().Attr(p.zAttr[i]))
		}
	}

	depth := make([]int, m) // how many values of each list are seen
	var buffer pairingHeap
	seen := map[string]bool{}

	// join builds the combinations of lists[i][depth[i]-1] with all seen
	// values of the other lists and pushes them to the buffer.
	join := func(i int) error {
		v := p.lists[i][depth[i]-1]
		zv := make([]scoredValue, m)
		zv[i] = v
		var rec func(j int) error
		rec = func(j int) error {
			if j == m {
				w := base
				for _, sv := range zv {
					w += sv.w
				}
				key := zKey(zv)
				if seen[key] {
					return nil
				}
				seen[key] = true
				buffer.Push(&object{vals: append([]scoredValue(nil), zv...), w: w, key: key})
				p.stats.Generated++
				if p.stats.Generated > maxGen {
					return ErrBudget
				}
				return nil
			}
			if j == i {
				return rec(j + 1)
			}
			for x := 0; x < depth[j]; x++ {
				zv[j] = p.lists[j][x]
				if err := rec(j + 1); err != nil {
					return err
				}
			}
			return nil
		}
		return rec(0)
	}

	// threshold is the rank-join bound: the best score any combination
	// using at least one unseen value could attain.
	topW := make([]float64, m)
	for i := range topW {
		topW[i] = p.lists[i][0].w
	}
	threshold := func() (float64, bool) {
		best := 0.0
		any := false
		for i := 0; i < m; i++ {
			if depth[i] >= len(p.lists[i]) {
				continue // list exhausted: no unseen value here
			}
			any = true
			t := base + p.lists[i][depth[i]].w
			for j := 0; j < m; j++ {
				if j != i {
					t += topW[j]
				}
			}
			if t > best {
				best = t
			}
		}
		return best, any
	}

	// Prime with the first value of every list.
	for i := 0; i < m; i++ {
		depth[i] = 1
		p.stats.Pops++
	}
	if err := join(m - 1); err != nil {
		return nil, p.stats, err
	}

	// nextEmit yields the next combination to check: buffered
	// combinations beating the current threshold, with the round-robin
	// lists advanced (and re-joined) in between.
	next := 0
	emitTau, emitMore := 0.0, false
	emitting := false
	nextEmit := func() (*object, bool, error) {
		for {
			if !emitting {
				emitTau, emitMore = threshold()
				emitting = true
			}
			o, ok := buffer.Pop()
			if ok && (!emitMore || o.w >= emitTau) {
				return o, true, nil
			}
			if ok {
				// Cannot emit yet: an unseen combination might be better.
				buffer.Push(o)
			}
			emitting = false
			if !emitMore {
				if buffer.Len() == 0 {
					return nil, false, nil // search space exhausted
				}
				continue // drain the buffer threshold-free
			}
			// Advance the round-robin cursor to the next non-exhausted list.
			advanced := false
			for tries := 0; tries < m; tries++ {
				i := next
				next = (next + 1) % m
				if depth[i] < len(p.lists[i]) {
					depth[i]++
					p.stats.Pops++
					if err := join(i); err != nil {
						return nil, false, err
					}
					advanced = true
					break
				}
			}
			if !advanced && buffer.Len() == 0 {
				return nil, false, nil
			}
		}
	}

	var out []Candidate
	for len(out) < k && !p.exhausted() {
		o, ok, err := nextEmit()
		if err != nil {
			return out, p.stats, err
		}
		if !ok {
			break
		}
		if t := p.assemble(o.vals); p.check(t) {
			out = append(out, Candidate{Tuple: t, Score: o.w})
		}
	}
	return out, p.stats, nil
}
