package chase

import (
	"fmt"
	"math/bits"

	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/rule"
)

// eventKind tags worklist entries.
type eventKind uint8

const (
	evPair     eventKind = iota // derive ti ⪯attr tj
	evPairMask                  // derive ti ⪯attr tj for every bit j of a word mask
	evTarget                    // instantiate te[attr] = val
	evStep                      // enforce ground step idx
)

type event struct {
	kind eventKind
	attr int32
	i, j int32 // for evPairMask, j is the word index of mask
	idx  int32
	val  model.Value
	vid  uint32 // dictionary ID of val, for evTarget events
	mask uint64 // for evPairMask: each set bit b derives i ⪯ (j<<6)+b
}

// engine is the mutable chase state shared by the base chase and by
// per-template runs. It processes a FIFO worklist of events, each of
// which is one (possibly built-in) chase step enforced atomically.
type engine struct {
	g      *Grounding
	base   bool // base mode: template-independent only — no te, no λ, no ϕ8
	pooled bool // pooled mode: buffers are retained and reset across runs

	orders *order.Set
	counts [][]int32 // per attr: for each j, #{i≠j : i ⪯ j}
	te     *model.Tuple
	// teID mirrors te as dictionary IDs (0 = still null); every target
	// equality test during a run is an integer comparison against it.
	teID   []uint32
	npred  []int32
	dead   []bool
	pushed []bool
	// form2More holds per-run re-registrations of form-2 entries that
	// advanced past their first condition (the grounding's form2 trig is
	// immutable and shared across runs). Keys are f2Key-packed.
	form2More map[uint64][]form2Entry
	// deadTouched lists the step indices marked dead this run, so a
	// pooled reset clears them without wiping the whole slice.
	deadTouched []int32

	queue []event
	head  int

	conflict     string
	stepsApplied int
}

// newEngine creates a fresh engine over empty orders (base mode).
func newEngine(g *Grounding, base bool) *engine {
	e := &engine{
		g:      g,
		base:   base,
		orders: order.NewSet(g.nattr, g.n),
		counts: make([][]int32, g.nattr),
		npred:  make([]int32, len(g.steps)),
		dead:   make([]bool, len(g.steps)),
		pushed: make([]bool, len(g.steps)),
	}
	for a := range e.counts {
		e.counts[a] = make([]int32, g.n)
	}
	for s := range g.steps {
		e.npred[s] = int32(len(g.steps[s].preds))
	}
	return e
}

// newRunEngine creates an engine that continues from the grounding's
// base snapshot. In pooled mode the engine's buffers survive drain()
// and reset() restores the base state in time proportional to the rows
// the previous run actually modified (dirty-row tracking on the order
// matrices), instead of reallocating O(nattr · n²/64) words per check.
func newRunEngine(g *Grounding, pooled bool) *engine {
	orders := g.baseOrders.Clone
	if pooled {
		orders = g.baseOrders.CloneTracked
	}
	e := &engine{
		g:      g,
		pooled: pooled,
		orders: orders(),
		counts: make([][]int32, g.nattr),
		te:     model.NewTuple(g.schema),
		teID:   make([]uint32, g.nattr),
		npred:  append([]int32(nil), g.baseNpred...),
		dead:   make([]bool, len(g.steps)),
		pushed: append([]bool(nil), g.basePushed...),
	}
	for a := range e.counts {
		e.counts[a] = append([]int32(nil), g.baseCounts[a]...)
	}
	return e
}

// reset restores a pooled engine to the grounding's base snapshot,
// reusing every buffer. Order matrices are restored via dirty-row
// tracking; the flat per-step slices are rewritten wholesale (they are
// O(n) and O(|Γ|) int32/bool copies, cheap next to the matrices).
func (e *engine) reset() {
	g := e.g
	e.orders.ResetFrom(g.baseOrders)
	for a := range e.counts {
		copy(e.counts[a], g.baseCounts[a])
	}
	copy(e.npred, g.baseNpred)
	copy(e.pushed, g.basePushed)
	for _, s := range e.deadTouched {
		e.dead[s] = false
	}
	e.deadTouched = e.deadTouched[:0]
	for a := 0; a < g.nattr; a++ {
		e.te.SetAt(a, model.Value{})
		e.teID[a] = model.NullID
	}
	clear(e.form2More)
	e.queue = e.queue[:0]
	e.head = 0
	e.conflict = ""
	e.stepsApplied = 0
}

// markDead records that step s can never fire this run.
func (e *engine) markDead(s int32) {
	if !e.dead[s] {
		e.dead[s] = true
		if e.pooled {
			e.deadTouched = append(e.deadTouched, s)
		}
	}
}

func (e *engine) pushPair(attr, i, j int32) {
	e.queue = append(e.queue, event{kind: evPair, attr: attr, i: i, j: j})
}

// pushPairMask enqueues a whole word of pairs at once: i ⪯attr (wi<<6)+b
// for every set bit b of mask. One queue entry replaces up to 64 evPair
// entries — the event-queue churn the correlation cascade used to pay
// per pair on large entities.
func (e *engine) pushPairMask(attr, i, wi int32, mask uint64) {
	e.queue = append(e.queue, event{kind: evPairMask, attr: attr, i: i, j: wi, mask: mask})
}

func (e *engine) pushTarget(attr int32, v model.Value, vid uint32) {
	e.queue = append(e.queue, event{kind: evTarget, attr: attr, val: v, vid: vid})
}

func (e *engine) pushStep(s int32) {
	if e.pushed[s] {
		return
	}
	e.pushed[s] = true
	e.queue = append(e.queue, event{kind: evStep, idx: s})
}

// drain processes the worklist to exhaustion or to the first conflict.
func (e *engine) drain() {
	for e.head < len(e.queue) && e.conflict == "" {
		ev := e.queue[e.head]
		e.head++
		switch ev.kind {
		case evPair:
			e.applyPair(ev.attr, ev.i, ev.j)
		case evPairMask:
			e.applyPairMask(ev.attr, ev.i, ev.j, ev.mask)
		case evTarget:
			e.applyTarget(ev.attr, ev.val, ev.vid)
		case evStep:
			e.applyStep(ev.idx)
		}
	}
	if e.pooled {
		// Keep the buffer: the next run refills it after reset().
		e.queue = e.queue[:0]
	} else {
		// Release the queue memory for long-lived engines.
		e.queue = nil
	}
	e.head = 0
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

// applyPairMask expands a masked pair event bit by bit through
// applyPair; most bits are no-ops (already derived by the closure
// insertion that queued the mask), so the win is purely fewer queue
// entries, not less derivation work.
func (e *engine) applyPairMask(attr, i, wi int32, mask uint64) {
	base := wi << 6
	for m := mask; m != 0; m &= m - 1 {
		if e.conflict != "" {
			return
		}
		e.applyPair(attr, i, base+int32(bits.TrailingZeros64(m)))
	}
}

// derivedWord post-processes one word of newly derived pairs
// x ⪯attr (wi<<6)+b for each set bit b of diff — conflict detection, λ
// bookkeeping and trigger firing per bit, then correlation propagation
// for the word as a whole. It is the word-at-a-time form of the old
// per-pair derivedPair callback: the per-attribute lookups are hoisted
// out of the bit loop, and the correlation cascade enqueues one masked
// event per (rule, word) instead of one event per pair.
func (e *engine) derivedWord(attr int32, rel *order.Relation, x int32, wi int, diff uint64) {
	ids := e.g.valID[attr]
	counts := e.counts[attr]
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
					switch cur := e.teID[attr]; {
					case cur == model.NullID:
						e.pushTarget(attr, e.g.vals[attr][y], vid)
					case cur != vid:
						e.conflict = fmt.Sprintf(
							"λ conflict on %s: maximum value %s contradicts te value %s",
							e.g.schema.Attr(int(attr)), e.g.vals[attr][y], e.te.At(int(attr)))
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

// fireCorr propagates a derived pair through the correlated-attribute
// rules registered on attr.
func (e *engine) fireCorr(attr, x, y int32) {
	for _, cr := range e.g.corrs[attr] {
		if cr.strict && e.g.valEq(attr, x, y) {
			continue
		}
		if e.g.holdsAll(cr.extra, x, y) {
			e.pushPair(cr.toAttr, x, y)
		}
	}
}

// fireCorrWord propagates one word of derived pairs (x, base+b for each
// set bit b of diff) through the correlated-attribute rules: per rule,
// the bits failing the rule's premises are masked off and the survivors
// go out as a single evPairMask event. A rule with no strictness and no
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

// applyTarget enforces te[attr] = v: no-op when already set to v, a
// conflict when set differently, otherwise an instantiation that fires
// the target triggers and the built-in axiom ϕ8. Equality against the
// current te value is an ID comparison (vid is v's dictionary ID).
func (e *engine) applyTarget(attr int32, v model.Value, vid uint32) {
	if e.conflict != "" || e.base {
		return
	}
	if cur := e.teID[attr]; cur != model.NullID {
		if cur != vid {
			e.conflict = fmt.Sprintf("target conflict on %s: %s vs %s",
				e.g.schema.Attr(int(attr)), e.te.At(int(attr)), v)
		}
		return
	}
	e.teID[attr] = vid
	e.te.SetAtID(int(attr), v, e.g.dict, vid)
	e.fireForm2(attr, vid)
	// Target triggers are layered by grounding version like the order
	// triggers; step indices are global across the layers, so one npred
	// array serves them all.
	for _, l := range e.g.ancestors {
		e.fireTargetRefs(l.targetTrig[attr], v, vid)
	}
	e.fireTargetRefs(e.g.targetTrig[attr], v, vid)
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
			e.markDead(ref.step)
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
	if more, ok := e.form2More[key]; ok {
		entries = append(append([]form2Entry(nil), entries...), more...)
		delete(e.form2More, key)
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
		e.g.schema.Attr(int(attr)), i, j, e.g.vals[attr][i], e.g.vals[attr][j])
}
