// Package framework implements the interactive deduction loop of
// Section 4 (Fig. 3) of the paper: check the Church-Rosser property,
// deduce the target tuple, compute top-k candidate targets when the
// target is incomplete, and interact with the user — revising the target
// template — until a complete target tuple is found.
//
// The "user" is abstracted as an Oracle so the loop can be driven
// interactively (cmd/relacc) or by ground truth in experiments
// (Exp-3, Figures 6(d) and 6(h)).
package framework

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/model"
	"repro/internal/topk"
)

// Oracle stands in for the user of Fig. 3.
type Oracle interface {
	// Accept inspects the suggested candidates and either selects one
	// (returning its index and true) or declines.
	Accept(cands []topk.Candidate) (int, bool)
	// Reveal supplies the accurate value of one attribute whose target
	// value is still null, chosen among attrs; returning false stops the
	// interaction.
	Reveal(te *model.Tuple, attrs []string) (string, model.Value, bool)
}

// Algorithm selects the top-k candidate search used in step (3).
type Algorithm int

const (
	// AlgoTopKCT uses TopKCT (the default; Section 6.2).
	AlgoTopKCT Algorithm = iota
	// AlgoRankJoinCT uses RankJoinCT (Section 6.1).
	AlgoRankJoinCT
	// AlgoTopKCTh uses the heuristic TopKCTh (Section 6.3).
	AlgoTopKCTh
)

// Search runs the algorithm's top-k candidate search from the deduced
// target te on grounding g; unknown values run TopKCT.
func (a Algorithm) Search(g *chase.Grounding, te *model.Tuple, pref topk.Preference) ([]topk.Candidate, topk.Stats, error) {
	switch a {
	case AlgoRankJoinCT:
		return topk.RankJoinCT(g, te, pref)
	case AlgoTopKCTh:
		return topk.TopKCTh(g, te, pref)
	default:
		return topk.TopKCT(g, te, pref)
	}
}

// Config tunes the loop.
type Config struct {
	// Pref is the preference model (k, p(·)).
	Pref topk.Preference
	// Algo selects the candidate algorithm.
	Algo Algorithm
	// MaxRounds bounds user-interaction rounds; 0 means 10.
	MaxRounds int
}

// Outcome reports how the loop ended.
type Outcome struct {
	// Target is the final target tuple (complete when Found).
	Target *model.Tuple
	// Found reports whether a complete target was settled on.
	Found bool
	// Rounds is the number of Reveal interactions used; 0 means the
	// chase alone (plus at most one candidate acceptance) sufficed.
	Rounds int
	// AcceptedCandidate reports whether the final target came from the
	// top-k suggestion rather than pure deduction.
	AcceptedCandidate bool
	// Candidates holds the last suggested top-k set.
	Candidates []topk.Candidate
}

// Run executes the framework loop on an already-grounded specification.
// It returns an error when the specification is not Church-Rosser —
// step (1) of Fig. 3 routes that case back to the user for rule
// revision, which is outside the loop.
func Run(g *chase.Grounding, cfg Config, oracle Oracle) (*Outcome, error) {
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 10
	}
	if cfg.Pref.K == 0 {
		cfg.Pref.K = 15 // the paper's default k
	}
	template := model.NewTuple(g.Schema())
	out := &Outcome{}
	for round := 0; ; round++ {
		res := g.Run(template)
		if !res.CR {
			return nil, fmt.Errorf("framework: specification is not Church-Rosser: %s", res.Conflict)
		}
		out.Target = res.Target
		if res.Target.Complete() {
			out.Found = true
			return out, nil
		}
		cands, _, err := cfg.Algo.Search(g, res.Target, cfg.Pref)
		if err != nil {
			return nil, err
		}
		out.Candidates = cands
		if i, ok := oracle.Accept(cands); ok {
			if i < 0 || i >= len(cands) {
				return nil, fmt.Errorf("framework: oracle accepted candidate %d of %d", i, len(cands))
			}
			out.Target = cands[i].Tuple
			out.Found = true
			out.AcceptedCandidate = true
			return out, nil
		}
		if round >= maxRounds {
			return out, nil
		}
		var nullAttrs []string
		for _, a := range res.Target.NullAttrs() {
			nullAttrs = append(nullAttrs, g.Schema().Attr(a))
		}
		attr, v, ok := oracle.Reveal(res.Target, nullAttrs)
		if !ok {
			return out, nil
		}
		if !template.Set(attr, v) {
			return nil, fmt.Errorf("framework: oracle revealed unknown attribute %q", attr)
		}
		out.Rounds++
	}
}

// GroundTruthOracle drives the loop from a known true tuple, simulating
// the user study of Exp-3: it accepts any suggested candidate equal to
// the truth, and otherwise reveals the true value of the first open
// attribute (deterministic given the schema order).
type GroundTruthOracle struct {
	Truth *model.Tuple
}

// Accept implements Oracle.
func (o *GroundTruthOracle) Accept(cands []topk.Candidate) (int, bool) {
	for i, c := range cands {
		if c.Tuple.EqualTo(o.Truth) {
			return i, true
		}
	}
	return 0, false
}

// Reveal implements Oracle.
func (o *GroundTruthOracle) Reveal(_ *model.Tuple, attrs []string) (string, model.Value, bool) {
	for _, a := range attrs {
		if v, ok := o.Truth.Get(a); ok && !v.IsNull() {
			return a, v, true
		}
	}
	return "", model.Value{}, false
}
