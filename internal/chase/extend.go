package chase

import (
	"fmt"
	"slices"

	"repro/internal/model"
)

// Extend absorbs new evidence tuples into the grounded specification
// and returns a NEW grounding version; the receiver is left exactly as
// it was, so in-flight Runs and checks against it are
// unaffected and later checks against it keep answering for the old
// evidence. Each version is immutable after construction, which
// carries the concurrency story of a fresh grounding over to the
// incremental path; a version does NOT keep its parent alive — it
// shares only the (bounded) trigger layers, and the step list when the
// delta adds no step — so superseded versions are garbage-collected
// once their readers finish.
//
// Extend runs the same builder as a fresh grounding, which is the
// extension of the empty grounding: only the new-tuple × existing-tuple
// and new-tuple × new-tuple pairs are partially evaluated — O(‖Σ‖·d·n)
// ground work for d added tuples instead of the O(‖Σ‖·n²) full rebuild
// — against the same precompiled form-(2) index the parent uses (it
// depends on master data and te conditions only, never on Ie). The
// template-independent base chase then RESUMES from the parent's
// terminal state rather than replaying from scratch: the chase is
// monotone, so every consequence the parent enforced stays enforced,
// and only the new tuples' axiom seeds, the newly grounded steps and
// any old steps they newly enable are chased. The result answers
// exactly like grounding the full instance fresh: deduced targets, CR
// verdicts, terminal orders, step counts, top-k candidates and stats
// are byte-identical (enforced by extend_test.go and the core
// equivalence tests). The one deliberate exception is the conflict
// WITNESS of a non-Church-Rosser specification: which invalid step gets
// reported first depends on enforcement order, so the Conflict string
// may name a different (equally valid) culprit than a fresh
// grounding's.
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
	// The overlay is shared across versions: delta values are interned
	// into it (append-only, under its own mutex, so two Extends of one
	// version and concurrent readers are safe), and every ID the parent
	// version issued — cached in candidate tuples, trigger premises,
	// value groups — stays valid here. See the DESIGN.md invariant on ID
	// stability. The verdict cache is version-private: the successor
	// starts empty (old verdicts answer for the old evidence) but shares
	// the chain's cumulative hit/miss counters, nil when disabled.
	return g.extend(ie2, g.dict, g.verdicts.counts, g.useAxioms), nil
}

// extend is the one grounding builder. It grounds ie, whose first p.n
// tuples are p's, on top of p's terminal state, and returns the new
// version over dict (the entity's overlay) with an empty verdict cache
// counting into counts. A fresh grounding is the extension of the
// Shared's empty grounding by its whole instance, so the steps below
// then run on empty parent state: every tuple is new, and nothing is
// resumed.
//
//relacc:grounding-builder
func (p *Grounding) extend(ie *model.EntityInstance, dict *model.Dict, counts *verdictCounts, useAxioms bool) *Grounding {
	g := &Grounding{
		ie:        ie,
		sh:        p.sh,
		n:         ie.Size(),
		nattr:     p.nattr,
		useAxioms: useAxioms,
		dict:      dict,
		// The step list is shared with the parent until the first new
		// step: the full slice expression makes that append copy it
		// onto a fresh backing array instead of overwriting the
		// parent's.
		steps:    p.steps[:len(p.steps):len(p.steps)],
		verdicts: verdictCache{counts: counts},
		version:  p.version + 1,
	}
	// Stack the parent's trigger layers (sharing the maps, not the
	// parent itself — its heavy state must stay collectable), then fold
	// them together once the stack gets deep so lookup cost stays
	// bounded on long update streams.
	g.ancestors = append([]trigLayer(nil), p.ancestors...)
	if l, ok := p.ownLayer(); ok {
		g.ancestors = append(g.ancestors, l)
	}
	sc := scratchPool.Get().(*buildScratch)
	g.indexValues(p, sc)
	e := newBaseEngine(g, p)
	g.seedAxioms(e, p.n, sc)
	g.ground(int32(p.n), e, sc)
	scratchPool.Put(sc)
	if len(g.ancestors) > maxTrigLayers {
		g.compactTriggers()
	}
	g.hasOrderTrig = len(g.orderTrig) > 0
	for _, l := range g.ancestors {
		g.hasOrderTrig = g.hasOrderTrig || len(l.orderTrig) > 0
	}
	g.baseChase(p, e)
	return g
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
	var mt [][]predRef
	fold := func(l trigLayer) {
		for k, refs := range l.orderTrig {
			merged[k] = append(merged[k], refs...)
		}
		if l.targetTrig != nil && mt == nil {
			mt = make([][]predRef, ng.nattr)
		}
		for a, refs := range l.targetTrig {
			mt[a] = append(mt[a], refs...)
		}
	}
	for _, l := range ng.ancestors {
		fold(l)
	}
	fold(trigLayer{orderTrig: ng.orderTrig, targetTrig: ng.targetTrig})
	ng.orderTrig, ng.targetTrig, ng.ancestors = merged, mt, nil
}

// Version reports how many evidence deltas this grounding has absorbed:
// 0 for a fresh grounding, incremented by each Extend.
func (g *Grounding) Version() int { return g.version }

// seedAxioms enforces ϕ9 (equal values are mutually ⪯) and ϕ7 (null
// has the lowest accuracy) for the tuples from oldN on. Among
// themselves they are seeded with bulk writes: their rows and columns
// hold no pair yet, so each group's new members, the new nulls and the
// new nulls below the new non-nulls are closed as written, and their λ
// counts follow from group and null sizes. Their pairs with the older
// tuples go through the worklist, which extends closure and fires
// triggers and correlation rules for them.
//
//relacc:grounding-builder
func (g *Grounding) seedAxioms(e *engine, oldN int, sc *buildScratch) {
	if !g.useAxioms {
		return
	}
	buf := grow(&sc.newIDs, g.n-oldN)
	for a := 0; a < g.nattr; a++ {
		aa, ids, counts := int32(a), g.idRow(a), e.countRow(a)
		// The new nulls fill buf from the front, the new non-nulls from
		// the back; both end up ascending.
		lo, hi := 0, len(buf)
		for i := oldN; i < g.n; i++ {
			if ids[i] == model.NullID {
				buf[lo] = uint32(i)
				lo++
			} else {
				hi--
				buf[hi] = uint32(i)
			}
		}
		nulls, nonNulls := buf[:lo], buf[hi:]
		slices.Reverse(nonNulls)
		// A group's new members are its tail. SetClique32 is a bitwise
		// OR, so group order cannot matter.
		_, first := g.attrGroups(a)
		for k := first; k < g.grpOff[a+1]; k++ {
			m := g.member(k)
			t := len(m)
			for t > 0 && int(m[t-1]) >= oldN {
				t--
			}
			e.orders.SetClique32(a, m[t:])
			for _, j := range m[t:] {
				counts[j] = int32(len(m) - t - 1 + len(nulls))
			}
		}
		e.orders.SetClique32(a, nulls)
		e.orders.SetBelow32(a, nulls, nonNulls)
		for _, j := range nulls {
			counts[j] = int32(len(nulls) - 1)
		}
		// With the older tuples: a new null sits below every one of them
		// and is mutually ⪯ the old nulls; a new non-null is mutually ⪯
		// its group's old members and sits above the old nulls.
		for _, i := range nulls {
			for j := int32(0); j < int32(oldN); j++ {
				e.pushPair(aa, int32(i), j)
				if ids[j] == model.NullID {
					e.pushPair(aa, j, int32(i))
				}
			}
		}
		for _, i := range nonNulls {
			for _, j := range g.groupFor(aa, ids[i]) {
				if int(j) >= oldN {
					break
				}
				e.pushPair(aa, int32(i), int32(j))
				e.pushPair(aa, int32(j), int32(i))
			}
			for j := int32(0); j < int32(oldN); j++ {
				if ids[j] == model.NullID {
					e.pushPair(aa, j, int32(i))
				}
			}
		}
	}
}

// baseChase chases every template-independent consequence into this
// version's base snapshot, resuming from p's terminal state with the
// axiom seeds and the zero-premise pairs ground pushed already in e.
// Monotonicity is what makes resumption sound: a chase step p enforced
// stays enforced under more evidence, so only the new tuples' seeds,
// the new ground steps and old steps whose premises the new facts
// complete need replaying. The pairs seedAxioms wrote in bulk fire their
// order triggers (in key order) and correlation rules here; every later
// pair fires them as the engine derives it. New facts propagate through
// the layered triggers into old steps, and closure insertion may derive
// old×old pairs bridged by a new tuple.
//
//relacc:grounding-builder
func (g *Grounding) baseChase(p *Grounding, e *engine) {
	// Premise counters and pushed flags carry over; the new steps start
	// with their full premise counts.
	e.initSteps(p.baseNpred, p.basePushed)
	if p.baseConflict != "" {
		// The old evidence already made the base chase conflict; more
		// evidence cannot retract an enforced step.
		g.snapshotBase(e)
		g.baseConflict = p.baseConflict
		return
	}
	oldN := p.n
	if g.useAxioms {
		// Only this version's own layer holds keys between two new
		// tuples, and at most nattr·d² of them for d new tuples.
		d := g.n - oldN
		keys := make([]uint64, 0, min(len(g.orderTrig), g.nattr*d*d))
		for k := range g.orderTrig {
			if _, i, j := trigKeyDecode(k); int(i) >= oldN && int(j) >= oldN {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		for _, k := range keys {
			attr, i, j := trigKeyDecode(k)
			if e.orders.Has(int(attr), int(i), int(j)) {
				e.fireOrderKey(k)
			}
		}
		// The seeded pairs all lie in the new rows, at the new columns.
		// (The seeds hold every new reflexive pair on every attribute, so
		// the push drops the i ⪯ i a row's own bit forwards.)
		for a := 0; a < g.nattr; a++ {
			if len(g.sh.corrs[a]) == 0 {
				continue
			}
			for i := oldN; i < g.n; i++ {
				for wi := oldN >> 6; wi<<6 < g.n; wi++ {
					if w := e.orders.Word(a, i, wi); w != 0 {
						e.fireCorrWord(int32(a), int32(i), wi, w)
					}
				}
			}
		}
	}
	for s := len(p.steps); s < len(g.steps); s++ {
		if e.npred[s] == 0 {
			e.pushStep(int32(s))
		}
	}
	e.drain()
	g.snapshotBase(e)
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
	g.baseConflict = e.conflict
}
