// Package core ties the data model, the accuracy-rule chase (Sections 2
// and 5 of the paper), the top-k candidate search (Section 6) and the
// interactive framework (Section 4) into one session-oriented,
// per-entity API. The public package relacc re-exports it (and the
// multi-entity batch pipeline, package pipeline) for external callers.
//
// Typical use:
//
//	sess, err := core.NewSession(ie, im, rules)
//	res := sess.Deduce()                  // Church-Rosser check + target
//	if !res.Target.Complete() {
//	    cands, _, _ := sess.TopK(core.Preference{K: 10}, core.AlgoTopKCT)
//	    ...
//	}
//
// ie is the entity instance (all tuples refer to one real-world entity,
// typically produced by package er), im optional master data, and rules
// the accuracy rules — built programmatically with package rule or
// parsed from text with ParseRules.
package core

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/framework"
	"repro/internal/model"
	"repro/internal/rule"
	"repro/internal/ruledsl"
	"repro/internal/topk"
)

// Re-exported types, so most callers only import core.
type (
	// Preference is the (k, p(·)) preference model of Section 3.
	Preference = topk.Preference
	// Candidate is one verified candidate target.
	Candidate = topk.Candidate
	// SearchStats reports the work a top-k search performed.
	SearchStats = topk.Stats
	// Result is a chase outcome.
	Result = chase.Result
	// Oracle drives the interactive framework.
	Oracle = framework.Oracle
	// Algorithm selects a top-k candidate algorithm.
	Algorithm = framework.Algorithm
)

// Top-k algorithm choices.
const (
	AlgoTopKCT     = framework.AlgoTopKCT
	AlgoRankJoinCT = framework.AlgoRankJoinCT
	AlgoTopKCTh    = framework.AlgoTopKCTh
)

// Session is a grounded specification S = (D0, Σ, Im, te0): the
// instance's rules are pre-instantiated once (the Instantiation step of
// Section 5) so deduction, candidate checks and top-k searches are
// cheap and repeatable.
//
// The read-side methods — Deduce, DeduceFrom, Check, TopK — are safe
// for concurrent use: they run on the session's current grounding
// version, which is immutable (race-tested in race_test.go).
// AddTuples installs a NEW grounding version and must not run
// concurrently with any other method; reads that started on the
// previous version finish on it unaffected.
type Session struct {
	g *chase.Grounding
}

// NewSession validates the rules against the schemas and grounds the
// specification. im may be nil when the rule set has no form-(2) rules.
// Callers opening many sessions over one schema should build a
// Groundwork once and use Groundwork.NewSession, which skips the
// per-session rule re-validation.
func NewSession(ie *model.EntityInstance, im *model.MasterRelation, rules *rule.Set) (*Session, error) {
	g, err := chase.NewGrounding(chase.Spec{Ie: ie, Im: im, Rules: rules}, chase.Options{})
	if err != nil {
		return nil, err
	}
	return &Session{g: g}, nil
}

// AddTuples absorbs new evidence tuples into the session and re-grounds
// incrementally: only the new-tuple pairs are instantiated and the
// template-independent base chase resumes from the previous terminal
// state (chase.Grounding.Extend), which is far cheaper than grounding
// the grown instance from scratch. After AddTuples the session behaves
// exactly as a fresh session over the full instance — Deduce, TopK,
// Check and Stats outputs are byte-identical, conflict messages of
// non-Church-Rosser specifications aside (enforced by
// incremental_test.go). On error the session is left on its previous
// version. AddTuples must not run concurrently with other methods.
func (s *Session) AddTuples(tuples ...*model.Tuple) error {
	g, err := s.g.Extend(tuples...)
	if err != nil {
		return err
	}
	s.g = g
	return nil
}

// Version reports how many evidence deltas the session has absorbed
// through AddTuples (0 for a fresh session).
func (s *Session) Version() int { return s.g.Version() }

// Instance returns the entity instance of the session's current
// grounding version.
func (s *Session) Instance() *model.EntityInstance { return s.g.Instance() }

// Deduce runs the chase from the all-null template: it decides the
// Church-Rosser property and, when it holds, returns the deduced target
// tuple (algorithm IsCR, Fig. 4). The accuracy orders are the chase's
// working state and are not returned.
func (s *Session) Deduce() *Result { return s.g.Run(nil) }

// DeduceFrom runs the chase from a partially (or fully) instantiated
// target template, as the framework's user-feedback loop does.
func (s *Session) DeduceFrom(template *model.Tuple) *Result { return s.g.Run(template) }

// Check verifies a complete candidate target (Section 6.1): the
// specification with t as the initial template must be Church-Rosser.
// It is Grounding.Check, which borrows one of the grounding's idle
// checkers, so repeated checks are allocation-free.
func (s *Session) Check(t *model.Tuple) bool { return s.g.Check(t) }

// TopK computes top-k candidate targets for the current deduced target
// using the selected algorithm. It fails when the specification is not
// Church-Rosser.
func (s *Session) TopK(pref Preference, algo Algorithm) ([]Candidate, SearchStats, error) {
	res := s.g.Run(nil)
	if !res.CR {
		return nil, SearchStats{}, fmt.Errorf("core: specification is not Church-Rosser: %s", res.Conflict)
	}
	return algo.Search(s.g, res.Target, pref)
}

// Interact runs the full framework loop of Fig. 3 with the given user
// oracle until a complete target is found or the oracle gives up.
func (s *Session) Interact(cfg framework.Config, oracle Oracle) (*framework.Outcome, error) {
	return framework.Run(s.g, cfg, oracle)
}

// Grounding exposes the underlying grounding for advanced callers
// (benchmarks, custom search strategies).
func (s *Session) Grounding() *chase.Grounding { return s.g }

// VerdictCacheStats reports the session's verdict-cache accounting:
// Check/TopK verdicts are memoised per grounding version (hits and
// misses are cumulative across the versions AddTuples has moved the
// session through; entries count the current version only).
// Sessions always run with the cache on; the stats expose how much of
// the check load it absorbed.
func (s *Session) VerdictCacheStats() chase.VerdictStats { return s.g.VerdictCacheStats() }

// Groundwork is the schema-level part of session construction: the
// rule set validated once against one (entity schema, master schema)
// pair plus the compiled form-(2) index (chase.Shared). Callers that
// repeatedly open sessions over the same schema — servers re-deducing
// entities as evidence arrives, batch drivers — build one Groundwork
// and stamp sessions out of it, skipping re-validation every time. A
// Groundwork is immutable and safe for concurrent use.
type Groundwork struct {
	sh *chase.Shared
}

// NewGroundwork validates the rules against the schemas once. im may be
// nil when the rule set has no form-(2) rules.
func NewGroundwork(entity *model.Schema, im *model.MasterRelation, rules *rule.Set) (*Groundwork, error) {
	sh, err := chase.NewShared(entity, im, rules)
	if err != nil {
		return nil, err
	}
	return &Groundwork{sh: sh}, nil
}

// NewSession grounds one entity instance on the prevalidated groundwork.
// The instance must use the exact schema the groundwork was built for.
func (gw *Groundwork) NewSession(ie *model.EntityInstance) (*Session, error) {
	g, err := gw.sh.NewGrounding(ie, chase.Options{})
	if err != nil {
		return nil, err
	}
	return &Session{g: g}, nil
}

// Shared exposes the underlying chase groundwork for internal callers
// (the batch pipeline and its update stream).
func (gw *Groundwork) Shared() *chase.Shared { return gw.sh }

// ParseRules parses the textual rule language (see package ruledsl) and
// validates the result against the schemas.
func ParseRules(text string, entity *model.Schema, master *model.Schema) (*rule.Set, error) {
	rules, err := ruledsl.Parse(text)
	if err != nil {
		return nil, err
	}
	return rule.NewSet(entity, master, rules...)
}

// FormatRules renders a rule set in the textual rule language.
func FormatRules(rules *rule.Set) string {
	return ruledsl.Format(rules.Rules())
}

// GroundTruthOracle returns an oracle driven by a known true tuple,
// for experiments and tests.
func GroundTruthOracle(truth *model.Tuple) Oracle {
	return &framework.GroundTruthOracle{Truth: truth}
}
