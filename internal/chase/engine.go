package chase

import (
	"fmt"
	"math/bits"

	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/rule"
)

// engine is the mutable chase state shared by the base chase and by
// per-template runs. Its worklist holds three kinds of pending work,
// each bounded by the grounding's shape rather than by how often a
// consequence is derived:
//
//   - target instantiations te[attr] = v: one slot per attribute, so a
//     second push for the attribute either agrees (a no-op) or is the
//     target conflict;
//   - ground steps: an int32 FIFO in which a step appears at most once
//     per run (pushed), so it never outgrows |Γ|;
//   - pair derivations ti ⪯attr tj: word masks per (attribute, row) in
//     the order matrices' shape (pairWork), so a repeated derivation
//     ORs into its pending word instead of queueing again.
//
// drain applies them in one fixed priority: targets, then steps, then
// pair rows in first-touch order. By Theorem 2 a Church-Rosser
// specification reaches the same terminal instance under every chase
// order, so the priority decides only which invalid step a
// non-Church-Rosser run reports first.
type engine struct {
	g    *Grounding
	base bool // base mode: template-independent only — no te, no λ, no ϕ8

	orders *order.Set
	counts []int32 // [attr·n + j]: #{i≠j : i ⪯attr j}, one slab
	te     *model.Tuple
	// teID mirrors te as dictionary IDs (0 = still null); every target
	// equality test during a run is an integer comparison against it.
	teID   []uint32
	npred  []int32
	dead   []bool
	pushed []bool
	// form2More holds per-run re-registrations of form-2 entries that
	// advanced past their first condition (the grounding's form2 trig is
	// immutable and shared across runs). Keys are f2Key-packed. A
	// reset empties the lists but keeps them, and f2buf is fireForm2's
	// reused merge buffer, so re-registration allocates nothing once an
	// engine has seen its keys.
	form2More map[uint64][]form2Entry
	f2buf     []form2Entry

	pairs    pairWork
	stepQ    []int32 // enforceable steps, from stepHead on
	stepHead int
	// tgtVal/tgtID hold each attribute's pending target (tgtID NullID:
	// none), and tgtQ, from tgtHead on, the attributes holding one in
	// push order. A base engine never instantiates te and leaves all
	// three nil.
	tgtVal  []model.Value
	tgtID   []uint32
	tgtQ    []int32
	tgtHead int

	conflict     string
	stepsApplied int
}

// pairWork holds an engine's pending pair derivations: one slab of
// word masks holding, per attribute, a matrix in the order matrix's
// shape (bit b of word wi of row i pending means i ⪯ (wi<<6)+b awaits
// enforcement), and a ring of the (attribute, row) slots that hold
// bits, in first-touch order. A slot is on the ring at most once, so
// the ring never holds more than nattr·n entries. The slab, the ring
// and its flags are allocated on the first push.
type pairWork struct {
	nattr  int
	n, w   int
	masks  []uint64 // slot attr·n+row is words [(attr·n+row)·w, +w); nil until the first push
	queued []bool   // [attr·n+row]: the slot is on the ring
	ring   []int32  // circular FIFO of slots attr·n+row
	head   int
	size   int
}

func newPairWork(nattr, n int) pairWork {
	return pairWork{nattr: nattr, n: n, w: (n + 63) >> 6}
}

// add ORs mask into word wi of the pending row (attr, i) and puts the
// slot on the ring unless it is there already.
func (p *pairWork) add(attr, i, wi int32, mask uint64) {
	if p.masks == nil {
		p.masks = make([]uint64, p.nattr*p.n*p.w)
		p.queued = make([]bool, p.nattr*p.n)
		p.ring = make([]int32, p.nattr*p.n)
	}
	s := attr*int32(p.n) + i
	p.masks[int(s)*p.w+int(wi)] |= mask
	if !p.queued[s] {
		p.queued[s] = true
		t := p.head + p.size
		if t >= len(p.ring) {
			t -= len(p.ring)
		}
		p.ring[t] = s
		p.size++
	}
}

// pop takes the slot at the front of the ring and returns it with its
// pending words, which the caller consumes. A later push to the slot
// puts it back on the ring.
func (p *pairWork) pop() (attr, i int32, row []uint64) {
	s := p.ring[p.head]
	if p.head++; p.head == len(p.ring) {
		p.head = 0
	}
	p.size--
	p.queued[s] = false
	attr, i = s/int32(p.n), s%int32(p.n)
	off := int(s) * p.w
	return attr, i, p.masks[off : off+p.w]
}

// reset drops every pending derivation. Every pending bit sits on a slot
// on the ring, so only those slots are cleared.
func (p *pairWork) reset() {
	for p.size > 0 {
		_, _, row := p.pop()
		clear(row)
	}
	p.head = 0
}

// newBaseEngine primes a base-mode engine for g with p's terminal base
// state, grown to g's instance: the order matrices gain empty rows and
// columns for the new tuples and the λ counts carry over. seedAxioms
// seeds the new tuples' axioms into it, and initSteps sizes its step
// state once Instantiation has run.
func newBaseEngine(g, p *Grounding) *engine {
	e := &engine{
		g:      g,
		base:   true,
		orders: p.baseOrders.Extend(g.n - p.n),
		counts: make([]int32, g.nattr*g.n),
		pairs:  newPairWork(g.nattr, g.n),
	}
	for a := 0; a < g.nattr; a++ {
		copy(e.countRow(a), p.baseCounts[a*p.n:(a+1)*p.n])
	}
	return e
}

// countRow returns attribute a's λ counts.
func (e *engine) countRow(a int) []int32 { return e.counts[a*e.g.n : (a+1)*e.g.n] }

// initSteps sizes the per-step state once Instantiation has materialised
// the grounding's steps: the premise counters and pushed flags of the
// first len(npred) steps carry over (the engine resumes the parent
// version's), and every later step starts with its full premise count.
func (e *engine) initSteps(npred []int32, pushed []bool) {
	ns := len(e.g.steps)
	e.npred = make([]int32, ns)
	e.dead = make([]bool, ns)
	e.pushed = make([]bool, ns)
	copy(e.npred, npred)
	copy(e.pushed, pushed)
	for s := len(npred); s < ns; s++ {
		e.npred[s] = int32(len(e.g.steps[s].preds))
	}
}

// newRunEngine creates an engine that continues from the grounding's
// base snapshot, on orders, the caller's clone of the base orders. A
// Checker's clone tracks dirty rows, so reset() restores the base state
// in time proportional to the rows the previous run actually modified
// instead of reallocating O(nattr · n²/64) words per check; Run's
// untracked clone serves one run.
func newRunEngine(g *Grounding, orders *order.Set) *engine {
	return &engine{
		g:      g,
		orders: orders,
		counts: append([]int32(nil), g.baseCounts...),
		te:     model.NewTuple(g.schema),
		teID:   make([]uint32, g.nattr),
		npred:  append([]int32(nil), g.baseNpred...),
		dead:   make([]bool, len(g.steps)),
		pushed: append([]bool(nil), g.basePushed...),
		pairs:  newPairWork(g.nattr, g.n),
		tgtVal: make([]model.Value, g.nattr),
		tgtID:  make([]uint32, g.nattr),
		// An attribute's slot fills at most once per run.
		tgtQ: make([]int32, 0, g.nattr),
	}
}

// reset restores a Checker's engine to the grounding's base snapshot,
// reusing every buffer. Order matrices are restored via dirty-row
// tracking; the flat per-step slices are rewritten wholesale (they are
// O(n) and O(|Γ|) int32/bool copies, cheap next to the matrices). A
// run that ended in a conflict may leave work pending: reset clears the
// pair slots on the ring and the pending target slots, and only those.
func (e *engine) reset() {
	g := e.g
	e.orders.ResetFrom(g.baseOrders)
	copy(e.counts, g.baseCounts)
	copy(e.npred, g.baseNpred)
	copy(e.pushed, g.basePushed)
	clear(e.dead)
	for a := 0; a < g.nattr; a++ {
		e.te.SetAt(a, model.Value{})
		e.teID[a] = model.NullID
	}
	for k, more := range e.form2More {
		e.form2More[k] = more[:0]
	}
	e.pairs.reset()
	for _, a := range e.tgtQ[e.tgtHead:] {
		e.tgtVal[a], e.tgtID[a] = model.Value{}, model.NullID
	}
	e.tgtQ, e.tgtHead = e.tgtQ[:0], 0
	e.stepQ, e.stepHead = e.stepQ[:0], 0
	e.conflict = ""
	e.stepsApplied = 0
}

func (e *engine) pushPair(attr, i, j int32) {
	e.pushPairMask(attr, i, j>>6, 1<<(uint32(j)&63))
}

// pushPairMask records i ⪯attr (wi<<6)+b as pending for every set bit b
// of mask. Bits already in the order row are dropped and a bit already
// pending coalesces, so a derivation repeated any number of times costs
// one pending bit; applyPair's Has check stays the final word on pairs
// derived between the push and the drain.
func (e *engine) pushPairMask(attr, i, wi int32, mask uint64) {
	if mask &^= e.orders.Attr(int(attr)).Word(int(i), int(wi)); mask != 0 {
		e.pairs.add(attr, i, wi, mask)
	}
}

// pushTarget records te[attr] = v as pending (vid is v's dictionary ID).
// A value that disagrees with te[attr], or with the target already
// pending for attr, is the target conflict; one that agrees is a no-op.
func (e *engine) pushTarget(attr int32, v model.Value, vid uint32) {
	if e.conflict != "" {
		return
	}
	var cur model.Value
	switch {
	case e.teID[attr] != model.NullID:
		if e.teID[attr] == vid {
			return
		}
		cur = e.te.At(int(attr))
	case e.tgtID[attr] != model.NullID:
		if e.tgtID[attr] == vid {
			return
		}
		cur = e.tgtVal[attr]
	default:
		e.tgtVal[attr], e.tgtID[attr] = v, vid
		e.tgtQ = append(e.tgtQ, attr)
		return
	}
	e.conflict = fmt.Sprintf("target conflict on %s: %s vs %s", e.g.schema.Attr(int(attr)), cur, v)
}

func (e *engine) pushStep(s int32) {
	if e.pushed[s] {
		return
	}
	e.pushed[s] = true
	e.stepQ = append(e.stepQ, s)
}

// drain processes the worklist to exhaustion or to the first conflict,
// in one fixed priority: pending targets first, then ground steps, then
// pending pair rows in ring (first-touch) order.
func (e *engine) drain() {
	for e.conflict == "" {
		switch {
		case e.tgtHead < len(e.tgtQ):
			e.tgtHead++
			e.applyTarget(e.tgtQ[e.tgtHead-1])
		case e.stepHead < len(e.stepQ):
			e.stepHead++
			e.applyStep(e.stepQ[e.stepHead-1])
		case e.pairs.size > 0:
			e.applyRow(e.pairs.pop())
		default:
			return
		}
	}
}

// applyRow enforces the pending pairs of one (attr, i) slot through
// applyPair, word by word. A push that lands on the row meanwhile puts
// the slot back on the ring. A conflict stops the row part-way; the
// words it did not reach are dropped with it, so every bit still
// pending afterwards sits on a slot on the ring, where a reset
// finds it.
func (e *engine) applyRow(attr, i int32, row []uint64) {
	rel := e.orders.Attr(int(attr))
	for wi, m := range row {
		if m == 0 {
			continue
		}
		row[wi] = 0
		base := int32(wi) << 6
		for m &^= rel.Word(int(i), wi); m != 0; m &= m - 1 {
			e.applyPair(attr, i, base+int32(bits.TrailingZeros64(m)))
			if e.conflict != "" {
				clear(row[wi+1:])
				return
			}
		}
	}
}

func (e *engine) applyStep(s int32) {
	if e.dead[s] || e.conflict != "" {
		return
	}
	st := &e.g.steps[s]
	e.applyPair(st.attr, st.i, st.j)
	e.stepsApplied++
}

// applyPair enforces ti ⪯attr tj: no-op when already derived, a conflict
// when the reverse strict pair is present, otherwise a closure-extending
// insertion whose every newly derived pair is post-processed.
func (e *engine) applyPair(attr, i, j int32) {
	if e.conflict != "" {
		return
	}
	rel := e.orders.Attr(int(attr))
	if rel.Has(int(i), int(j)) {
		return
	}
	if rel.Has(int(j), int(i)) && !e.g.valEq(attr, i, j) {
		e.conflictPair(attr, i, j)
		return
	}
	for _, d := range rel.AddDiffs(int(i), int(j)) {
		e.derivedWord(attr, rel, d.Row, int(d.Word), d.Bits)
		if e.conflict != "" {
			return
		}
	}
}

// derivedWord post-processes one word of newly derived pairs
// x ⪯attr (wi<<6)+b for each set bit b of diff — conflict detection, λ
// bookkeeping and trigger firing per bit, then correlation propagation
// for the word as a whole. The per-attribute lookups are hoisted out of
// the bit loop, and the correlation cascade pushes one mask per (rule,
// word) instead of one pair at a time.
func (e *engine) derivedWord(attr int32, rel *order.Relation, x int32, wi int, diff uint64) {
	ids := e.g.idRow(int(attr))
	counts := e.countRow(int(attr))
	base := int32(wi << 6)
	nm1 := int32(e.g.n - 1)
	for d := diff; d != 0; d &= d - 1 {
		y := base + int32(bits.TrailingZeros64(d))
		if y != x {
			if rel.Has(int(y), int(x)) && ids[x] != ids[y] {
				e.conflictPair(attr, x, y)
				return
			}
			counts[y]++
			if !e.base && counts[y] == nm1 {
				// λ: y now dominates every other tuple.
				if vid := ids[y]; vid != model.NullID {
					if cur := e.teID[attr]; cur != model.NullID && cur != vid {
						e.conflict = fmt.Sprintf(
							"λ conflict on %s: maximum value %s contradicts te value %s",
							e.g.schema.Attr(int(attr)), e.g.val(attr, y), e.te.At(int(attr)))
						return
					}
					if e.pushTarget(attr, e.g.val(attr, y), vid); e.conflict != "" {
						return
					}
				}
			}
		}
		if e.g.hasOrderTrig {
			e.fireOrderKey(trigKey(attr, x, y))
		}
	}
	e.fireCorrWord(attr, x, wi, diff)
}

// fireOrderKey satisfies every ground-step premise waiting on the order
// fact identified by key. Triggers are layered by grounding version —
// each Extend registers only its new steps' premises — so the lookup
// consults the ancestor layers (oldest first, matching a fresh
// grounding's step-index registration order) and then the current
// version's own map; keys are version-independent (fixed bit fields,
// not scaled by n).
func (e *engine) fireOrderKey(key uint64) {
	for _, l := range e.g.ancestors {
		e.fireOrderRefs(l.orderTrig[key])
	}
	e.fireOrderRefs(e.g.orderTrig[key])
}

func (e *engine) fireOrderRefs(refs []predRef) {
	for _, ref := range refs {
		if e.dead[ref.step] {
			continue
		}
		e.npred[ref.step]--
		if e.npred[ref.step] == 0 {
			e.pushStep(ref.step)
		}
	}
}

// fireCorrWord propagates one word of derived pairs (x, base+b for each
// set bit b of diff) through the correlated-attribute rules: per rule,
// the bits failing the rule's premises are masked off and the survivors
// are pushed as one pending mask. A rule with no strictness and no
// extra premises — the common shape — forwards the whole word without
// touching any bit.
func (e *engine) fireCorrWord(attr, x int32, wi int, diff uint64) {
	crs := e.g.corrs[attr]
	if len(crs) == 0 {
		return
	}
	base := int32(wi << 6)
	for ci := range crs {
		cr := &crs[ci]
		m := diff
		if cr.strict || len(cr.extra) > 0 {
			for d := diff; d != 0; d &= d - 1 {
				y := base + int32(bits.TrailingZeros64(d))
				if (cr.strict && e.g.valEq(attr, x, y)) || !e.g.holdsAll(cr.extra, x, y) {
					m &^= d & -d
				}
			}
		}
		if m != 0 {
			e.pushPairMask(cr.toAttr, x, int32(wi), m)
		}
	}
}

// applyTarget instantiates te[attr] with its pending target, then fires
// the form-(2) entries and target triggers waiting on it and the
// built-in axiom ϕ8. pushTarget settled every disagreement, so te[attr]
// is still null here. Equality against te values is an ID comparison.
func (e *engine) applyTarget(attr int32) {
	v, vid := e.tgtVal[attr], e.tgtID[attr]
	e.tgtVal[attr], e.tgtID[attr] = model.Value{}, model.NullID
	e.teID[attr] = vid
	e.te.SetAtID(int(attr), v, e.g.dict, vid)
	if e.fireForm2(attr, vid); e.conflict != "" {
		return
	}
	// Target triggers are layered by grounding version like the order
	// triggers; step indices are global across the layers, so one npred
	// array serves them all. A layer whose steps hold no target premise
	// has no targetTrig.
	for _, l := range e.g.ancestors {
		if l.targetTrig != nil {
			e.fireTargetRefs(l.targetTrig[attr], v, vid)
		}
	}
	if e.g.targetTrig != nil {
		e.fireTargetRefs(e.g.targetTrig[attr], v, vid)
	}
	if e.g.useAxioms {
		// ϕ8: every tuple is at most as accurate as the tuples whose
		// attr value equals the (now known) target value.
		group := e.g.groupFor(attr, vid)
		if len(group) > 0 {
			rel := e.orders.Attr(int(attr))
			rel.AddAllToWords(group, func(p, wi int, diff uint64) bool {
				e.derivedWord(attr, rel, int32(p), wi, diff)
				return e.conflict == ""
			})
		}
	}
}

// fireTargetRefs resolves the target premises of one trigger layer
// against the just-instantiated value: each premise either fires (and
// may complete its step) or can never be satisfied again, killing the
// step. Equality and inequality premises — the overwhelmingly common
// shapes — resolve by ID; ordering operators compare the values.
func (e *engine) fireTargetRefs(refs []predRef, v model.Value, vid uint32) {
	for _, ref := range refs {
		if e.dead[ref.step] {
			continue
		}
		p := &e.g.steps[ref.step].preds[ref.pred]
		var sat bool
		switch p.op {
		case rule.Eq:
			sat = vid == p.valID
		case rule.Ne:
			sat = vid != p.valID
		default:
			sat = p.op.Eval(v, p.val)
		}
		if sat {
			e.npred[ref.step]--
			if e.npred[ref.step] == 0 {
				e.pushStep(ref.step)
			}
		} else {
			// te[attr] will never change again, so the premise — and with
			// it the whole step — can never be satisfied.
			e.dead[ref.step] = true
		}
	}
}

// fireForm2 advances the form-2 entries waiting on te[attr] taking the
// value with dictionary ID vid: each either fires its consequence,
// waits on its next condition, or dies. Keys, condition matching and
// re-registration are all integer-only.
func (e *engine) fireForm2(attr int32, vid uint32) {
	key := f2Key(attr, vid)
	entries := e.g.form2.trig[key]
	if more := e.form2More[key]; len(more) > 0 {
		// Later re-registrations go to other keys (te[attr] is set
		// now), so the merged list is stable while the loop runs.
		e.f2buf = append(append(e.f2buf[:0], entries...), more...)
		entries = e.f2buf
		e.form2More[key] = more[:0]
	}
	for _, entry := range entries {
		nextAttr, want, pending := e.g.form2.nextCond(entry, e.teID)
		switch {
		case !pending:
			tgt, val, cid := e.g.form2.consequence(e.g.im, entry)
			e.pushTarget(tgt, val, cid)
		case nextAttr < 0:
			// dead: a condition mismatched
		default:
			k := f2Key(nextAttr, want)
			if e.form2More == nil {
				e.form2More = map[uint64][]form2Entry{}
			}
			e.form2More[k] = append(e.form2More[k], entry)
		}
	}
}

func (e *engine) conflictPair(attr, i, j int32) {
	e.conflict = fmt.Sprintf(
		"order conflict on %s: tuples %d and %d are mutually more accurate with values %s vs %s",
		e.g.schema.Attr(int(attr)), i, j, e.g.val(attr, i), e.g.val(attr, j))
}
