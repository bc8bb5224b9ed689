package chase

import (
	"fmt"

	"repro/internal/model"
)

// Extend absorbs new evidence tuples into the grounded specification
// and returns a NEW grounding version; the receiver is left exactly as
// it was, so in-flight Runs and Checkers against it are
// unaffected and later checks against it keep answering for the old
// evidence. Each version is immutable after construction, which
// carries the concurrency story of a fresh grounding over to the
// incremental path; a version does NOT keep its parent alive — it
// shares only the step prefix and the (bounded) trigger layers — so
// superseded versions are garbage-collected once their readers finish.
//
// Extend is the delta form of the paper's Instantiation (Section 5):
// only the new-tuple × existing-tuple and new-tuple × new-tuple pairs
// are partially evaluated — O(‖Σ‖·d·n) ground work for d added tuples
// instead of the O(‖Σ‖·n²) full rebuild — against the same precompiled
// form-(2) index the parent uses (it depends on master data and te
// conditions only, never on Ie). The template-independent base chase
// then RESUMES from the parent's terminal state rather than replaying
// from scratch: the chase is monotone, so every consequence the parent
// enforced stays enforced, and only the new tuples' axiom seeds, the
// newly grounded steps and any old steps they newly enable are chased.
// The result answers exactly like grounding the full instance fresh:
// deduced targets, CR verdicts, terminal orders, step counts, top-k
// candidates and stats are byte-identical (enforced by extend_test.go
// and the core equivalence tests). The one deliberate exception is the
// conflict WITNESS of a non-Church-Rosser specification: which invalid
// step gets reported first depends on enforcement order, so the
// Conflict string may name a different (equally valid) culprit than a
// fresh grounding's.
//
//relacc:grounding-builder
func (g *Grounding) Extend(tuples ...*model.Tuple) (*Grounding, error) {
	if len(tuples) == 0 {
		return g, nil
	}
	ie2, err := g.ie.Extend(tuples...)
	if err != nil {
		return nil, fmt.Errorf("chase: %w", err)
	}
	if ie2.Size() >= maxTuples {
		return nil, fmt.Errorf("chase: instance would hold %d tuples, limit is %d",
			ie2.Size(), maxTuples-1)
	}
	ng := &Grounding{
		ie:        ie2,
		im:        g.im,
		schema:    g.schema,
		n:         ie2.Size(),
		nattr:     g.nattr,
		useAxioms: g.useAxioms,
		// The overlay is shared across versions: delta values are
		// interned into it (append-only, under its own mutex, so two
		// Extends of one version and concurrent readers are safe), and
		// every ID the parent version issued — cached in candidate
		// tuples, trigger premises, value groups — stays valid here.
		// See the DESIGN.md invariant on ID stability.
		dict: g.dict,
		// The step prefix is shared with the parent; the full slice
		// expression forces the first delta step onto a fresh backing
		// array instead of overwriting the parent's.
		steps:     g.steps[:len(g.steps):len(g.steps)],
		orderTrig: make(map[uint64][]predRef),
		form1:     g.form1,
		corrs:     g.corrs,
		form2:     g.form2,
		master:    g.master,
		// The verdict cache is version-private: the successor starts
		// empty (old verdicts answer for the old evidence) but shares
		// the chain's cumulative hit/miss counters. nil stays nil.
		verdicts: g.verdicts.NextVersion(),
		version:  g.version + 1,
	}
	// Stack the parent's trigger layers (sharing the maps, not the
	// parent itself — its heavy state must stay collectable), then
	// fold them together once the stack gets deep so lookup cost stays
	// bounded on long update streams.
	ng.ancestors = append([]trigLayer(nil), g.ancestors...)
	if l, ok := g.ownLayer(); ok {
		ng.ancestors = append(ng.ancestors, l)
	}
	ng.extendValues(g)
	e := newDeltaEngine(ng, g)
	ng.ground(int32(g.n), e)
	if len(ng.ancestors) > maxTrigLayers {
		ng.compactTriggers()
	}
	ng.hasOrderTrig = len(ng.orderTrig) > 0
	for _, l := range ng.ancestors {
		ng.hasOrderTrig = ng.hasOrderTrig || len(l.orderTrig) > 0
	}
	ng.baseChaseDelta(g, e)
	return ng, nil
}

// maxTrigLayers bounds the trigger-layer stack: when an Extend would
// exceed it, every layer is merged into the new version's own maps
// (O(total triggers), amortised over maxTrigLayers versions), so
// per-fact trigger lookups never walk more than maxTrigLayers+1 maps
// however many deltas an entity has absorbed.
const maxTrigLayers = 32

// compactTriggers folds the ancestor layers into this version's own
// trigger maps. Layers are merged oldest first and the own layer last,
// which keeps every key's refs sorted by step index — the same order a
// fresh grounding registers them in.
//
//relacc:grounding-builder
func (ng *Grounding) compactTriggers() {
	merged := make(map[uint64][]predRef)
	mt := make([][]predRef, ng.nattr)
	for _, l := range ng.ancestors {
		for k, refs := range l.orderTrig {
			merged[k] = append(merged[k], refs...)
		}
		for a, refs := range l.targetTrig {
			mt[a] = append(mt[a], refs...)
		}
	}
	for k, refs := range ng.orderTrig {
		merged[k] = append(merged[k], refs...)
	}
	for a, refs := range ng.targetTrig {
		mt[a] = append(mt[a], refs...)
	}
	ng.orderTrig, ng.targetTrig, ng.ancestors = merged, mt, nil
}

// Version reports how many evidence deltas this grounding has absorbed:
// 0 for a fresh grounding, incremented by each Extend.
func (g *Grounding) Version() int { return g.version }

// extendValues builds the per-version value indexes: the parent's ID
// rows are copied (they are O(nattr·n) uint32s, cheap next to any
// chase work), the new tuples' values resolved against the chain's
// overlay (a cached base ID when the tuple carries one, an overlay
// Intern otherwise), and the value groups extended copy-on-append — a group
// gaining no member shares its slice with the parent, so the parent's
// groups (which in-flight checkers on the old version may be reading)
// never change. The old representation's per-extend map-of-Value copy,
// which rehashed every distinct value and re-keyed every group, is
// gone entirely.
//
//relacc:grounding-builder
func (ng *Grounding) extendValues(p *Grounding) {
	n, na, oldN := ng.n, ng.nattr, p.n
	ng.valID = make([][]uint32, na)
	ng.vals = make([][]model.Value, na)
	ng.groups = make([]idGroups, na)
	ng.targetTrig = make([][]predRef, na)
	for a := 0; a < na; a++ {
		ids := make([]uint32, n)
		vs := make([]model.Value, n)
		copy(ids, p.valID[a])
		copy(vs, p.vals[a])
		for i := oldN; i < n; i++ {
			t := ng.ie.Tuple(i)
			vs[i], ids[i] = t.At(a), ng.dict.InternAt(t, a)
		}
		ng.valID[a], ng.vals[a] = ids, vs
		ng.groups[a] = p.groups[a].extend(ids, oldN)
	}
}

// newDeltaEngine primes a base-mode engine with the parent's terminal
// base state, extended to the new instance size: order matrices grow
// empty rows for the new tuples and λ counts carry over. Its step state
// is sized by initSteps once delta Instantiation has run.
func newDeltaEngine(ng, p *Grounding) *engine {
	e := &engine{
		g:            ng,
		base:         true,
		orders:       p.baseOrders.Extend(ng.n - p.n),
		counts:       make([][]int32, ng.nattr),
		pairs:        newPairWork(ng.nattr, ng.n),
		stepsApplied: p.baseSteps,
	}
	for a := range e.counts {
		e.counts[a] = make([]int32, ng.n)
		copy(e.counts[a], p.baseCounts[a])
	}
	return e
}

// baseChaseDelta resumes the template-independent base chase from the
// parent's terminal state, with the delta's zero-premise pairs already
// pushed into e by ground. Monotonicity is what makes resumption sound:
// a chase step enforced by the parent stays enforced under more
// evidence, so only the new tuples' axiom seeds, the delta ground steps
// and old steps whose premises the new facts complete need replaying.
// New facts propagate through the layered triggers into old steps, and
// closure insertion may derive old×old pairs bridged by a new tuple —
// both paths run through the same engine the fresh base chase uses.
//
//relacc:grounding-builder
func (ng *Grounding) baseChaseDelta(p *Grounding, e *engine) {
	// Premise counters and pushed flags carry over; the new steps start
	// with their full premise counts.
	e.initSteps(p.baseNpred, p.basePushed)
	if p.baseConflict != "" {
		// The old evidence already made the base chase conflict; more
		// evidence cannot retract an enforced step.
		ng.snapshotBase(e)
		ng.baseConflict = p.baseConflict
		return
	}
	if ng.useAxioms {
		ng.seedDeltaAxioms(e, p.n)
	}
	for s := len(p.steps); s < len(ng.steps); s++ {
		if e.npred[s] == 0 {
			e.pushStep(int32(s))
		}
	}
	e.drain()
	ng.snapshotBase(e)
}

// seedDeltaAxioms enforces ϕ7/ϕ9 for the new tuples through the regular
// worklist: unlike the fresh base chase, which seeds an empty relation
// with closure-safe bulk writes, the delta runs against a populated
// relation, so every seed goes through applyPair and gets closure
// propagation, trigger firing and correlation cascades for free.
// Already-derived pairs are dropped at the push.
func (ng *Grounding) seedDeltaAxioms(e *engine, oldN int) {
	for a := 0; a < ng.nattr; a++ {
		aa := int32(a)
		ids := ng.valID[a]
		for i := oldN; i < ng.n; i++ {
			e.pushPair(aa, int32(i), int32(i)) // ϕ9, reflexive
		}
		// ϕ9: each new tuple is mutually ⪯ the tuples sharing its value.
		for i := oldN; i < ng.n; i++ {
			if ids[i] == model.NullID {
				continue
			}
			for _, j := range ng.groupFor(aa, ids[i]) {
				if int(j) == i {
					continue
				}
				e.pushPair(aa, int32(i), j)
				e.pushPair(aa, j, int32(i))
			}
		}
		// ϕ7: null values have the lowest accuracy — a new null joins
		// the null clique and sits below every non-null; a new non-null
		// sits above every old null (new nulls reach it via their own
		// loop).
		for i := oldN; i < ng.n; i++ {
			ii := int32(i)
			if ids[i] == model.NullID {
				for j := 0; j < ng.n; j++ {
					if j == i {
						continue
					}
					if ids[j] == model.NullID {
						e.pushPair(aa, ii, int32(j))
						e.pushPair(aa, int32(j), ii)
					} else {
						e.pushPair(aa, ii, int32(j))
					}
				}
			} else {
				for j := 0; j < oldN; j++ {
					if ids[j] == model.NullID {
						e.pushPair(aa, int32(j), ii)
					}
				}
			}
		}
	}
}

// snapshotBase freezes the engine's terminal state as this version's
// base snapshot.
//
//relacc:grounding-builder
func (g *Grounding) snapshotBase(e *engine) {
	g.baseOrders = e.orders
	g.baseCounts = e.counts
	g.baseNpred = e.npred
	g.basePushed = e.pushed
	g.baseSteps = e.stepsApplied
	g.baseConflict = e.conflict
}
