// Package pipeline runs the paper's per-entity deduce → top-k loop over
// a whole relation of entities at once: the multi-entity workload every
// realistic deployment has, where core.Session is the single-entity
// kernel. Entities are sharded across a worker pool; each worker reuses
// the instance-independent groundwork (validated rules, compiled
// form-(2) index — chase.Shared) that all entities of one schema have in
// common, grounds its entity, deduces the target (IsCR, Fig. 4) and,
// when the target stays incomplete, searches top-k candidate targets
// (Section 6) on pooled allocation-free checkers.
//
// Results stream to the caller in entity order regardless of worker
// scheduling, and every per-entity field is byte-identical to what a
// sequential core.Session run over the same entity produces — the
// equivalence is enforced by pipeline_test.go under -race. A failing
// entity (grounding error, candidate-search error) reports through its
// Result.Err and never aborts the batch; Summary tallies outcomes and
// aggregate accuracy/coverage statistics across the relation.
package pipeline

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/chase"
	"repro/internal/framework"
	"repro/internal/model"
	"repro/internal/rule"
	"repro/internal/topk"
)

// Algorithm selects a top-k candidate algorithm (re-exported from
// package framework so pipeline callers need not import it).
type Algorithm = framework.Algorithm

// Top-k algorithm choices.
const (
	AlgoTopKCT     = framework.AlgoTopKCT
	AlgoRankJoinCT = framework.AlgoRankJoinCT
	AlgoTopKCTh    = framework.AlgoTopKCTh
)

// ParseAlgorithm maps an algorithm's wire name — what cmd/relacc flags
// and the relaccd query parameters use — to its Algorithm value:
// "topkct", "rankjoin" or "topkcth".
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "topkct":
		return AlgoTopKCT, nil
	case "rankjoin":
		return AlgoRankJoinCT, nil
	case "topkcth":
		return AlgoTopKCTh, nil
	}
	return 0, fmt.Errorf("pipeline: unknown algorithm %q", name)
}

// Config tunes one batch run. The zero value deduces only (no candidate
// search) on GOMAXPROCS workers.
type Config struct {
	// Master is the optional master relation Im shared by all entities.
	Master *model.MasterRelation
	// Rules is the accuracy rule set Σ shared by all entities.
	Rules *rule.Set
	// Workers bounds how many entities are processed concurrently;
	// <= 0 means GOMAXPROCS. Per-entity output does not depend on it.
	Workers int
	// TopK requests a top-k candidate search for every entity whose
	// deduced target is incomplete; 0 disables candidate search.
	// It overrides Pref.K.
	TopK int
	// Algo selects the candidate algorithm (default AlgoTopKCT).
	Algo Algorithm
	// Pref refines the preference model (weights, domains, check
	// budget).
	Pref topk.Preference
	// Options configures the chase (e.g. DisableAxioms for bare-rule
	// semantics, DisableVerdictCache to turn off check memoisation).
	Options chase.Options
	// DisableSettledCache turns off the update stream's settled-target
	// memo: with it set, every Query/Snapshot/Apply re-deduction runs
	// the full deduce → search, even when the entity's committed
	// grounding version and the (k, algorithm) pair match the last
	// computed answer. The memo is semantically invisible — a hit
	// returns the byte-identical result a recomputation would produce
	// (enforced by updater_cache_test.go) — so disabling it is for
	// measurement and equivalence testing. Batch runs (Run/Stream)
	// ignore it: they have no live entities to memoise on.
	DisableSettledCache bool
	// MaxEntityTuples bounds how many evidence tuples one live entity
	// may accumulate on the update stream; <= 0 means unbounded. A
	// delta that would push an entity past the bound fails that
	// entity's ABSORPTION deterministically — the entity keeps its
	// previous grounding version, exactly like a wrong-schema tuple —
	// so a durable log replays the failure identically (the bound
	// depends only on committed size + delta size, never on timing).
	// Batch runs (Run/Stream) ignore it: their instances arrive fully
	// formed.
	MaxEntityTuples int
}

func (cfg *Config) workers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result is the outcome for one entity, in input order.
type Result struct {
	// Index is the entity's position in the input slice.
	Index int
	// Key is the entity's routing key when the result came from an
	// update stream (Apply, Query, Snapshot); empty for batch runs,
	// whose entities are identified by Index alone.
	Key string
	// Version is the grounding version the result was deduced on: 0
	// for a batch entity or a just-created stream entity, k after k
	// absorbed deltas. It is the version at deduction time — under
	// concurrent Apply calls the live entity may have moved on by the
	// time the caller reads it. When Err reports a failed ABSORPTION
	// no deduction ran: Version then carries the version the entity
	// kept (its pre-delta version, or -1 when the failure was the
	// entity's creation and no version exists).
	Version int
	// Instance is the entity instance the result describes.
	Instance *model.EntityInstance
	// Err reports a per-entity failure; the batch continues with the
	// other entities. On a grounding error Deduction is nil; on a
	// candidate-search error Deduction still carries the (incomplete)
	// deduction outcome the search started from, and Candidates/Stats
	// carry whatever the aborted search verified before failing (the
	// partial candidates of a budget abort; empty for errors that
	// stop a search before it checks anything).
	Err error
	// Deduction is the chase outcome: Church-Rosser verdict, deduced
	// target and terminal accuracy orders.
	Deduction *chase.Result
	// Candidates holds the top-k candidate targets when the deduced
	// target was incomplete and Config.TopK > 0.
	Candidates []topk.Candidate
	// Stats reports the candidate-search work (zero when no search ran).
	Stats topk.Stats
	// Elapsed is the wall-clock time this entity took: grounding (or
	// extending), deduction and candidate search. Summary.Elapsed is
	// the whole batch; per-entity times expose the skew a batch hides
	// (one adversarial entity dominating an otherwise fast relation).
	Elapsed time.Duration
}

// Status classifies the result for reporting.
func (r *Result) Status() string {
	switch {
	case r.Err != nil:
		return "error"
	case !r.Deduction.CR:
		return "not-church-rosser"
	case r.Deduction.Target.Complete():
		return "complete"
	case len(r.Candidates) > 0:
		return "candidates"
	default:
		return "incomplete"
	}
}

// Settled returns the target the entity settles on: the complete
// deduced target, else the best verified candidate, else nil (an error,
// a non-Church-Rosser specification, or an incomplete target with no
// candidates). It is the one rule behind every fused -o relation.
func (r *Result) Settled() *model.Tuple {
	switch r.Status() {
	case "complete":
		return r.Deduction.Target
	case "candidates":
		return r.Candidates[0].Tuple
	}
	return nil
}

// Summary aggregates a batch: outcome counts plus accuracy/coverage
// statistics over the whole relation.
type Summary struct {
	// Entities is the number of entities processed.
	Entities int
	// Errors counts entities that failed with Result.Err.
	Errors int
	// NotCR counts entities whose specification was not Church-Rosser.
	NotCR int
	// Complete counts entities whose target was deduced completely.
	Complete int
	// WithCandidates counts incomplete entities for which the top-k
	// search returned at least one verified candidate.
	WithCandidates int
	// Incomplete counts entities left incomplete with no candidates
	// (search disabled, exhausted or fruitless).
	Incomplete int
	// AttrsDeduced / AttrsTotal measure attribute coverage: non-null
	// target attributes over all attributes of Church-Rosser entities.
	AttrsDeduced int
	AttrsTotal   int
	// Checks sums the chase-based candidate checks spent by the top-k
	// searches.
	Checks int
	// Elapsed is the wall-clock time of the batch.
	Elapsed time.Duration
}

// Coverage is AttrsDeduced/AttrsTotal, the fraction of attributes the
// chase decided across the relation (0 when nothing was processed).
func (s *Summary) Coverage() float64 {
	if s.AttrsTotal == 0 {
		return 0
	}
	return float64(s.AttrsDeduced) / float64(s.AttrsTotal)
}

// String renders a one-paragraph report.
func (s *Summary) String() string {
	return fmt.Sprintf(
		"%d entities in %s: %d complete, %d with candidates, %d incomplete, %d not-CR, %d errors; attribute coverage %d/%d (%.0f%%), %d candidate checks",
		s.Entities, s.Elapsed.Round(time.Millisecond), s.Complete, s.WithCandidates,
		s.Incomplete, s.NotCR, s.Errors, s.AttrsDeduced, s.AttrsTotal, 100*s.Coverage(), s.Checks)
}

func (s *Summary) add(r *Result, arity int) {
	s.Entities++
	switch {
	case r.Err != nil:
		s.Errors++
		return
	case !r.Deduction.CR:
		s.NotCR++
		return
	}
	s.AttrsTotal += arity
	s.AttrsDeduced += arity - len(r.Deduction.Target.NullAttrs())
	s.Checks += r.Stats.Checks
	switch {
	case r.Deduction.Target.Complete():
		s.Complete++
	case len(r.Candidates) > 0:
		s.WithCandidates++
	default:
		s.Incomplete++
	}
}

// Run processes every entity and returns the results in input order
// plus the batch summary. All entities must share the first entity's
// schema (pointer identity); rule validation happens once, up front.
func Run(entities []*model.EntityInstance, cfg Config) ([]Result, Summary, error) {
	results := make([]Result, 0, len(entities))
	sum, err := Stream(entities, cfg, func(r Result) error {
		results = append(results, r)
		return nil
	})
	return results, sum, err
}

// Stream is Run with a sink: per-entity results are delivered to sink
// in input order as soon as they (and all their predecessors) finish,
// so a caller can report progress or persist verdicts while later
// entities are still being checked. sink runs on the calling goroutine;
// returning an error stops the batch early and is returned from Stream.
// Invalid rules and schema mismatches fail the batch before any entity
// is processed; the entities then run through StreamFrom's worker pool.
func Stream(entities []*model.EntityInstance, cfg Config, sink func(Result) error) (Summary, error) {
	start := time.Now()
	var sum Summary
	if len(entities) == 0 {
		sum.Elapsed = time.Since(start)
		return sum, nil
	}
	shared, err := chase.NewShared(entities[0].Schema(), cfg.Master, cfg.Rules)
	if err != nil {
		return sum, err
	}
	schema := shared.Schema()
	for i, ie := range entities {
		if ie.Schema() != schema {
			return sum, fmt.Errorf("pipeline: entity %d uses schema %s, batch uses %s",
				i, ie.Schema().Name(), schema.Name())
		}
	}
	return streamFrom(shared, &sliceSource{entities}, cfg, sink, start)
}

// sliceSource replays a materialized batch as an EntitySource.
type sliceSource struct{ ents []*model.EntityInstance }

func (s *sliceSource) Next() (*model.EntityInstance, error) {
	if len(s.ents) == 0 {
		return nil, io.EOF
	}
	ie := s.ents[0]
	s.ents = s.ents[1:]
	return ie, nil
}

// runEntity is the per-entity kernel: ground, deduce, search.
func runEntity(i int, ie *model.EntityInstance, shared *chase.Shared, cfg *Config) Result {
	start := time.Now()
	out := Result{Index: i, Instance: ie}
	g, err := shared.NewGrounding(ie, cfg.Options)
	if err != nil {
		out.Err = fmt.Errorf("pipeline: entity %d: %w", i, err)
		out.Elapsed = time.Since(start)
		return out
	}
	runGrounding(&out, g, cfg)
	out.Elapsed = time.Since(start)
	return out
}

// runGrounding deduces (and, per cfg, searches candidates) on an
// existing grounding version; shared by the batch kernel and the update
// stream, so a re-deduction after an evidence delta reports exactly
// like a fresh batch entity.
func runGrounding(out *Result, g *chase.Grounding, cfg *Config) {
	out.Instance = g.Instance()
	out.Version = g.Version()
	out.Deduction = g.Run(nil)
	if !out.Deduction.CR || out.Deduction.Target.Complete() || cfg.TopK <= 0 {
		return
	}
	pref := cfg.Pref
	pref.K = cfg.TopK
	cands, stats, err := cfg.Algo.Search(g, out.Deduction.Target, pref)
	// Keep the partial candidates and Stats an aborted search returns
	// (RankJoinCT's budget abort verifies candidates before it gives
	// up) — the serving layer degrades to partials, it does not
	// swallow them.
	out.Candidates = cands
	out.Stats = stats
	if err != nil {
		// Label stream results by key — "entity 0" would be all a
		// server operator ever saw of Query failures, whose Index is
		// meaningless. Like the extend-phase errors, this makes the
		// Err STRING of keyed results differ from a fresh batch's
		// index-labelled one; the equivalence suites compare keyed
		// streams against batches only where no search error occurs.
		if out.Key != "" {
			out.Err = fmt.Errorf("pipeline: entity %q: %w", out.Key, err)
		} else {
			out.Err = fmt.Errorf("pipeline: entity %d: %w", out.Index, err)
		}
	}
}
