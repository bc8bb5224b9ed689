// Package chase implements the inference system for relative accuracy of
// Sections 2.2, 3 and 5 of the paper: a chase procedure that applies
// accuracy rules to an entity instance, the IsCR algorithm that decides
// the Church-Rosser property, and the computation of the deduced target
// tuple.
//
// # Semantics
//
// A specification S = (D0, Σ, Im, te0) fixes an entity instance Ie with
// initially empty accuracy orders, a rule set Σ, optional master data Im
// and an initial target template te0 (all null, or a candidate tuple when
// verifying candidates). A chase step either extends one attribute's
// order ⪯Ai with a pair and recomputes te[Ai] via the λ (maximum)
// function, or instantiates te[Ai] from a master tuple. A step is valid
// when it creates no order conflict (t1 ⪯ t2 ∧ t2 ⪯ t1 with
// t1[Ai] ≠ t2[Ai]) and never changes a non-null te value.
//
// Run simulates one maximal chase sequence, enforcing every rule
// consequence as soon as its premises hold. The specification is
// reported Church-Rosser exactly when no enforceable step is invalid,
// which by Theorem 2 of the paper (stability of a terminal chasing
// sequence) coincides with all chase orders reaching the same terminal
// instance. This is the check performed by algorithm IsCR (Fig. 4); it
// is also the `check` used to validate candidate targets in the top-k
// algorithms (Section 6.1), obtained by passing a complete template.
//
// The axioms ϕ7 (null has lowest accuracy), ϕ8 (the te value has highest
// accuracy) and ϕ9 (equal values are mutually ⪯), which the paper
// includes in every rule set, are implemented natively: ϕ7/ϕ9 seed the
// initial orders, and ϕ8 fires whenever a target attribute becomes
// known.
//
// # Performance
//
// NewGrounding performs the paper's Instantiation preprocessing once: it
// partially evaluates every rule on every tuple pair (and every master
// tuple), materialising only steps with unresolved premises, indexed by
// the facts that complete them (the structure H of Section 5, with
// counters nφ and trigger sets Φδ). Rules whose body is a single order
// predicate plus value comparisons — the common "correlated attribute"
// shape like ϕ2, ϕ4, ϕ5 — are compiled to attribute-level propagation
// triggers instead of n² ground steps. All template-independent
// consequences are chased once into a base state, so each Run only
// replays template-dependent work; this is what makes the thousands of
// candidate checks issued by the top-k algorithms affordable.
//
// The rules themselves are compiled once per Shared, not per entity:
// NewShared resolves every attribute reference to a schema position,
// builds the correlation triggers, and splits each remaining form-(1)
// rule's comparisons by the tuples they read, so Instantiation tests a
// t1-only guard once per tuple i and a t2-only guard once per tuple j
// before the pair loop, and only two-tuple comparisons per pair. Rows
// csvio resolved against the Shared's base dictionary carry their value
// IDs, or a mark that the base lacks the value, so indexing them probes
// the base at most once per value.
//
// Values are dictionary-encoded, and the deduction core runs on dense
// uint32 IDs — instance value rows, the ϕ8/ϕ9 equality classes,
// form-(2) trigger keys (packed attr<<32|valueID uint64s),
// target-premise firing and the engine's te row all compare IDs
// instead of hashing model.Value structs, and so do the compiled
// guards: a comparison with the null constant tests an ID against
// NullID, and an ordering between two tuples on one attribute compares
// the ranks of the attribute's distinct values, computed once per
// version (evalCmpOnPair). A version keeps its ID rows, value groups
// and ranks in one slab (layout.go). The chase compares a value
// only with values of the same entity, with master data and with rule
// constants, so IDs need only agree within one entity: the Shared's
// read-only base dictionary holds master values, rule constants and
// ⊥, and each grounding interns its entity's other values into its
// own overlay of the base, an open-addressing table sized from the
// entity. Candidate templates assembled by the top-k
// search carry cached ID rows, so a check never probes the dictionary.
// IDs equate values up to model.Value.Norm — the same classes the Key
// strings define — and are append-only: every Extend version of a
// grounding shares its overlay and interns delta values into it
// without invalidating any ID an earlier version issued (DESIGN.md
// invariant 3a).
//
// Every chase — base, delta, Run and check — keeps its pending
// work within a small multiple of its order matrices: pending pair
// derivations coalesce into word masks per (attribute, row) in the
// matrices' shape, each ground step is queued at most once, and each
// attribute holds at most one pending target. A consequence re-derived
// any number of times costs one pending bit, so no chase grows a queue
// with the number of derivations, and Instantiation pushes its
// zero-premise pairs straight into the base engine's masks.
//
// On top of the shared base state, checks are pooled. A
// Checker keeps one run engine alive across checks: its buffers
// (order matrices, λ counts, premise counters, dead/pushed flags, the
// worklist and the form-2 re-registration map) are reused, and the
// base snapshot is restored between runs through dirty-row tracking
// (order.Relation.ResetFrom) — only the rows the previous run modified
// are rewritten, so a check that derives little does near-zero restore
// work instead of re-cloning O(nattr · n²/64) words. Grounding.Check
// borrows such a checker from a sync.Pool the version holds, so the
// goroutines checking one version share its engines, and caches each
// verdict as its conflict string ("" for Church-Rosser).
// The Grounding itself is immutable after NewGrounding, which is what
// makes all of this safe: any number of engines may read it
// concurrently.
//
// # Incremental evidence
//
// Evidence tuples may arrive after grounding. Grounding.Extend absorbs
// a delta without rebuilding: it instantiates only the pairs that
// involve new tuples against the same shared form-(2) index, resumes
// the template-independent base chase from the previous terminal state
// (the chase is monotone — enforced consequences stay enforced, so
// only new steps and newly enforceable old steps replay), and returns
// a NEW immutable grounding version. Immutability is per version:
// in-flight checkers keep reading the old version; the new one shares
// the old trigger layers, and the old step list when the delta adds no
// step (a delta that adds steps copies it). There is one grounding
// builder: a fresh grounding is the extension of the Shared's empty
// grounding by its whole instance, so NewGrounding and Extend index
// values, seed the axioms, instantiate and chase a block of new tuples
// the same way. Among themselves the new tuples' axioms are written in
// bulk; only their pairs with older tuples, which a fresh grounding
// has none of, go through the worklist. Every Run, check and top-k
// answer of an extended grounding is byte-identical to a fresh
// grounding over the full instance (extend_test.go, block_test.go).
package chase

import (
	"fmt"
	"sync"

	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/rule"
)

// Spec is a specification S = (D0, Σ, Im, te0) minus the target
// template, which is supplied per Run.
type Spec struct {
	// Ie is the entity instance; it is never mutated by the chase.
	Ie *model.EntityInstance
	// Im is the master relation; nil means no master data.
	Im *model.MasterRelation
	// Rules is the rule set Σ (axioms excluded; they are built in).
	Rules *rule.Set
}

// Options configures grounding.
type Options struct {
	// DisableAxioms turns off the built-in axioms ϕ7–ϕ9. The paper
	// includes them in every rule set; disabling is intended for tests
	// that exercise the bare rule semantics.
	DisableAxioms bool
	// DisableVerdictCache turns off the per-version verdict cache that
	// Checkers consult before running a candidate check (see
	// cache.go). The cache is semantically invisible — cached and
	// uncached checks answer byte-identically — so disabling it is only
	// useful for measurement and for the equivalence tests that prove
	// that claim.
	DisableVerdictCache bool
}

// Result is the outcome of running the chase to termination.
type Result struct {
	// CR reports whether the specification (with the given template) is
	// Church-Rosser: no enforceable chase step was invalid.
	CR bool
	// Conflict describes the first invalid step when CR is false.
	Conflict string
	// Target is the deduced target tuple (meaningful when CR).
	Target *model.Tuple
	// Orders are the terminal accuracy orders (meaningful when CR).
	Orders *order.Set
	// Steps counts the residual ground steps enforced during this run.
	// Most chase work does not appear here: template-independent steps
	// are folded into the shared base state at grounding time, and the
	// built-in axioms, correlation propagations and master lookups run
	// through dedicated paths.
	Steps int
}

// Complete reports whether the run deduced a complete target.
func (r *Result) Complete() bool { return r.CR && r.Target.Complete() }

// residKind distinguishes the two trigger kinds of the index H.
type residKind uint8

const (
	residOrder  residKind = iota // the fact ti ⪯attr tj
	residTarget                  // the fact te[attr] op val
)

// resid is one unresolved premise of a ground step.
type resid struct {
	kind  residKind
	attr  int32
	i, j  int32 // order fact
	op    rule.Op
	val   model.Value // target comparison operand
	valID uint32      // dictionary ID of val (0 = null), for Eq/Ne firing
}

// groundStep is one partially evaluated rule application φ ∈ Γ: its
// consequence is the order fact ti ⪯attr tj.
type groundStep struct {
	ruleName string
	attr     int32
	i, j     int32
	preds    []resid
}

// predRef locates one premise inside one ground step.
type predRef struct {
	step int32
	pred int32
}

// form2Entry is one (form-2 rule, master row) pair awaiting its
// conditions.
type form2Entry struct {
	ruleIdx int32
	rowIdx  int32
}

// f2Key packs a pending condition te[attr] = want into a uint64 map
// key: the attribute position in the high half, the want value's
// dictionary ID in the low half. Key construction on the chase hot
// path is two shifts — no value hashing, no allocation.
func f2Key(attr int32, valID uint32) uint64 {
	return uint64(attr)<<32 | uint64(valID)
}

// compiledForm2 is a form-(2) rule with attribute references resolved
// to positions and every master-side comparison value pre-interned.
type compiledForm2 struct {
	name  string
	conds []compiledCond
	tgt   int32 // entity schema position of the consequence attribute
	src   int32 // master schema position of the consequence source
	// condIDs[row][cond] is the dictionary ID of the value cond wants
	// te to carry when grounded on master row (0 = null master value:
	// never satisfiable); consID[row] is the ID of the consequence
	// value tm[src]. Both are filled at grounding, so condition
	// matching during a Run is pure integer comparison.
	condIDs [][]uint32
	consID  []uint32
}

// compiledCond is one te[A] = X condition with resolved positions
// (OnMaster conditions are folded away at grounding).
type compiledCond struct {
	attr      int32 // entity schema position of A
	isConst   bool
	c         model.Value
	masterIdx int32 // master schema position of B' when not constant
}

// form2Index is the lazily-grounded form-(2) rule state. It depends only
// on the entity schema, the master relation and the rule set — not on
// the entity instance — so a Shared builds it once and shares it across
// the many per-entity groundings a dataset run creates. Its trigger keys
// are f2Key-packed (attr, value-ID) pairs, so the index is bound to the
// value dictionary it was grounded with.
type form2Index struct {
	rules []compiledForm2
	trig  map[uint64][]form2Entry
	zero  []form2Entry // condition-free entries, enforced at Run start
}

// corrRule is a compiled correlated-attribute rule: when a pair is
// derived on fromAttr (strict: and the values differ), and the extra
// comparisons hold on the pair, the same pair is derived on toAttr.
// NewShared compiles every corrRule once; all groundings of the Shared,
// and all their Extend versions, read the same ones, and the engine
// evaluates extra through the same compiled predicates as grounding.
type corrRule struct {
	ruleName string
	fromAttr int32
	toAttr   int32
	strict   bool
	extra    []cmpPred // tuple/constant comparisons only
}

// Grounding is the reusable, immutable product of Instantiation plus the
// template-independent base chase. Create one with NewGrounding; run the
// template-dependent part with Run; absorb new evidence with Extend,
// which returns a new immutable version and leaves the receiver as it
// was.
//
// A Grounding is read-only after construction: Run, Check and Extend
// never mutate it, so any number of goroutines may run checks against
// the same Grounding concurrently (enforced by the race tests in
// pool_test.go). All mutable chase state lives in per-run engines;
// the only internal synchronisation is the sync.Pool of idle checkers
// and the verdict map the first cacheable check builds.
//
// A grounding keeps its instance's tuples, not a copy of their values:
// the chase reads a tuple's value from the tuple itself, next to the ID
// it interned at grounding time. So a tuple handed to a grounding, by
// NewGrounding or Extend, must not change afterwards.
type Grounding struct {
	ie        *model.EntityInstance
	im        *model.MasterRelation
	schema    *model.Schema
	n         int // |Ie|
	nattr     int
	useAxioms bool

	// dict is this entity's overlay of the Shared's base dictionary,
	// shared by every version of this grounding: Extend interns delta
	// values into it, and its append-only protocol keeps every
	// previously issued ID valid. Only grounding builders insert into
	// it. All hot-path value comparisons below are ID comparisons
	// against it.
	dict *model.Dict
	// The version's value indexes, cut from one slab (layout.go): ID
	// rows (ids), value groups in CSR form (grpOff, gIDs, memOff,
	// members — the paper's value-equality classes, feeding axioms
	// ϕ8/ϕ9) and guard ranks (rankOK, ranks) for the Shared's rank
	// slots, whose attributes rankAttrs lists.
	ids       []uint32
	grpOff    []uint32
	gIDs      []uint32
	memOff    []uint32
	members   []uint32
	rankOK    []uint32
	ranks     []uint32
	rankAttrs []int32

	// steps are the materialised ground steps; orderTrig and
	// targetTrig ([attr] -> premises te[attr] op v, form-1 only) index
	// this version's own premises, each allocated by the first step that
	// registers one.
	steps      []groundStep
	orderTrig  map[uint64][]predRef
	targetTrig [][]predRef

	// form1 and corrs are the Shared's compiled form-(1) rules, read
	// by every grounding and version of it and never written.
	form1 []form1Rule
	corrs [][]corrRule

	// Form-(2) rules are grounded lazily: each (rule, master row) pair
	// waits on its first unmet condition, indexed by (attr, value key);
	// when te[attr] takes that exact value the entry advances to its
	// next unmet condition or fires. This keeps Instantiation linear in
	// |Im| without materialising a ground step per master tuple, and
	// target-assignment triggers O(matching rows) instead of O(|Im|).
	form2 *form2Index
	// master is the Shared's ranked master columns, shared like form2.
	master []masterColumn

	baseOrders   *order.Set
	baseCounts   []int32 // [attr·n + j]: the base state's λ counts
	baseNpred    []int32
	basePushed   []bool
	baseConflict string

	// ancestors holds the trigger layers of earlier versions of this
	// grounding (oldest first; empty for a fresh grounding). An
	// extended version shares its ancestors' immutable trigger maps,
	// the step prefix, the correlation rules and the form-(2) index,
	// and registers only its delta steps' premises in its own
	// orderTrig/targetTrig — deliberately NOT a pointer to the parent
	// grounding, so a long update stream does not pin every old
	// version's heavy state (base orders, value indexes) in memory:
	// once in-flight readers finish, old versions are collectable.
	// Extend folds the layers together every maxTrigLayers versions so
	// lookups stay O(1+maxTrigLayers) regardless of stream length.
	ancestors []trigLayer
	version   int
	// hasOrderTrig caches whether any layer registered an order
	// trigger, so the per-derived-pair fast path stays one branch.
	hasOrderTrig bool

	// verdicts memoises Checker verdicts for this version, keyed by the
	// template's packed value-ID row (cache.go). It is version-private:
	// Extend gives the successor an empty one (sharing only cumulative
	// counters), so entries never outlive the grounding they are valid
	// for.
	verdicts verdictCache

	// checkers holds the version's idle Checkers for Check to borrow;
	// like the verdicts, they go with the version.
	checkers sync.Pool
}

// NewGrounding validates the rules, performs Instantiation and chases
// all template-independent consequences into a base state. Callers that
// ground many instances of one schema should build a Shared once and
// use Shared.NewGrounding instead, which skips the per-entity
// validation and form-(2) compilation this constructor performs.
func NewGrounding(spec Spec, opts Options) (*Grounding, error) {
	if spec.Ie == nil {
		return nil, fmt.Errorf("chase: specification has no entity instance")
	}
	sh, err := NewShared(spec.Ie.Schema(), spec.Im, spec.Rules)
	if err != nil {
		return nil, err
	}
	return sh.NewGrounding(spec.Ie, opts)
}

// Instance returns the entity instance the grounding was built for.
func (g *Grounding) Instance() *model.EntityInstance { return g.ie }

// Master returns the master relation (possibly nil).
func (g *Grounding) Master() *model.MasterRelation { return g.im }

// Schema returns the entity schema.
func (g *Grounding) Schema() *model.Schema { return g.schema }

// Dict returns the dictionary this grounding's IDs refer to: the
// entity's overlay of the Shared's base, shared by every version
// produced by Extend. Callers (the top-k search) look candidate values
// up in it and tag templates with it, so checks never hash a value;
// they never intern into it.
func (g *Grounding) Dict() *model.Dict { return g.dict }

// GroundSteps returns |Γ|, the number of materialised ground steps
// (zero-premise order steps are folded into the base state and not
// counted).
func (g *Grounding) GroundSteps() int { return len(g.steps) }

// Trigger keys pack (attr, i, j) into fixed bit fields rather than
// mixing in n, so a key computed by one grounding version stays valid
// for every later version of the same entity (Extend grows n). The
// widths bound instances at 2²⁴ tuples and schemas at 2¹⁶ attributes,
// far beyond the paper's scales; NewGrounding/Extend enforce the tuple
// bound.
const (
	trigTupleBits = 24
	trigTupleMask = 1<<trigTupleBits - 1
	maxTuples     = 1 << trigTupleBits
)

func trigKey(attr, i, j int32) uint64 {
	return uint64(attr)<<(2*trigTupleBits) | uint64(i)<<trigTupleBits | uint64(j)
}

func trigKeyDecode(k uint64) (attr, i, j int32) {
	return int32(k >> (2 * trigTupleBits)), int32(k >> trigTupleBits & trigTupleMask), int32(k & trigTupleMask)
}

// trigLayer is one grounding version's trigger registrations. Layers
// are immutable once the version is built; extended versions stack
// them and engines consult every layer (step indices are global across
// the version chain, so one premise-counter array serves all layers).
type trigLayer struct {
	orderTrig  map[uint64][]predRef
	targetTrig [][]predRef
}

// ownLayer returns this version's trigger registrations as a layer and
// whether it holds any trigger at all (empty layers are not stacked).
func (g *Grounding) ownLayer() (trigLayer, bool) {
	has := len(g.orderTrig) > 0
	if !has {
		for _, refs := range g.targetTrig {
			if len(refs) > 0 {
				has = true
				break
			}
		}
	}
	return trigLayer{orderTrig: g.orderTrig, targetTrig: g.targetTrig}, has
}

// NumDistinct returns how many distinct non-null values attribute a
// carries in Ie.
func (g *Grounding) NumDistinct(a int) int { return int(g.grpOff[a+1] - g.grpOff[a]) }

// Distinct returns the k-th distinct non-null value of attribute a in
// Ie, for k < NumDistinct(a), in dictionary ID order: its first
// occurrence, its ID, how many tuples carry it, and the tuple index of
// its first occurrence.
func (g *Grounding) Distinct(a, k int) (v model.Value, id uint32, count, first int) {
	gk := g.grpOff[a] + uint32(k)
	m := g.member(gk)
	return g.val(int32(a), int32(m[0])), g.gIDs[gk], len(m), int(m[0])
}

// Count returns how many tuples of Ie carry the value with dictionary
// ID id at attribute a.
func (g *Grounding) Count(a int, id uint32) int { return len(g.groupFor(int32(a), id)) }

// MasterColumn returns the distinct master values of attribute a,
// ranked by String with ties in master row order (rankMaster), or nil
// when there is no master column for a. The ranking runs once per
// Shared, on the first call for a, and is shared by every grounding
// and version of it; callers must not modify it.
//
// The write is lazy construction, made once-only by the column's
// sync.Once; the ranking is deduction machinery, not deduced state.
//
//relacc:grounding-builder
func (g *Grounding) MasterColumn(a int) []MasterValue {
	if g.master == nil || g.master[a].ma < 0 {
		return nil
	}
	g.master[a].once.Do(func() { g.master[a].ranked = rankMaster(g.im, g.master[a].ma, g.dict) })
	return g.master[a].ranked
}

// val returns tuple i's value at attribute a, read from the tuple
// itself; valID(a, i) is its dictionary ID.
func (g *Grounding) val(a, i int32) model.Value { return g.ie.Tuple(int(i)).At(int(a)) }

// valEq reports whether tuples i and j agree on attr — both null, or
// both carrying the same interned value. One integer comparison,
// replacing the string-key comparison of the pre-dictionary code.
func (g *Grounding) valEq(attr, i, j int32) bool {
	row := g.ids[int(attr)*g.n:]
	return row[i] == row[j]
}

// ground performs Instantiation over the Shared's compiled form-(1)
// rules: it materialises residual ground steps, registers their
// triggers, and pushes every zero-premise order pair straight into the
// base engine e's pending masks, which deduplicate them across rules
// (rule sets often contain several rules with the same consequence, per
// the paper's Exp setup) and drop those the seeded orders already hold.
// Only pairs (i, j) with i >= oldN or j >= oldN are visited, where oldN
// is the parent version's instance size: 0 for a fresh grounding (all
// pairs), so an Extend's work is the new-tuple × existing-tuple and
// new-tuple × new-tuple pairs — O(‖Σ‖·d·n) for d added tuples instead
// of the full O(‖Σ‖·n²) rebuild.
func (g *Grounding) ground(oldN int32, e *engine, sc *buildScratch) {
	ok2 := grow(&sc.ok2, g.n)
	for k := range g.form1 {
		g.groundForm1(&g.form1[k], e, oldN, ok2)
	}
}

// evalCmpOnPair evaluates a compiled comparison on the ordered tuple
// pair (i, j) standing for (t1, t2), on integers wherever NewShared
// could compile it so (cmpKind): a comparison with the null constant
// tests a value ID against NullID, an equality test between instance
// values compares IDs, and an ordered comparison of two tuples on one
// attribute compares the version's ranks of their values, when the
// version could rank that attribute. Every other comparison — other
// constants, cross-attribute ordering, an unranked attribute — is
// Op.Eval on the values. Grounding's guards and pair comparisons and
// the engine's correlation guards all evaluate here, so the ID-based
// Eq/Ne path — whose NaN folding differs from Value.Equal — never
// depends on which compiled shape a rule took.
func (g *Grounding) evalCmpOnPair(p *cmpPred, i, j int32) bool {
	l := pick(p.lt, i, j)
	switch p.kind {
	case cmpNull:
		null := g.valID(p.la, l) == model.NullID
		switch p.op {
		case rule.Eq:
			return null
		case rule.Ne:
			return !null
		}
		return false // null orders against nothing
	case cmpID:
		eq := g.valID(p.la, l) == g.valID(p.ra, pick(p.rt, i, j))
		return eq == (p.op == rule.Eq)
	case cmpRank:
		if g.rankOK[p.slot] != 0 {
			row := g.ranks[int(p.slot)*g.n:]
			x, y := row[l], row[pick(p.rt, i, j)]
			if x == 0 || y == 0 {
				return false
			}
			switch p.op {
			case rule.Lt:
				return x < y
			case rule.Le:
				return x <= y
			case rule.Gt:
				return x > y
			}
			return x >= y
		}
	}
	if p.rt == 0 {
		return p.op.Eval(g.val(p.la, l), p.c)
	}
	return p.op.Eval(g.val(p.la, l), g.val(p.ra, pick(p.rt, i, j)))
}

// holdsAll reports whether every comparison in ps holds on (i, j).
func (g *Grounding) holdsAll(ps []cmpPred, i, j int32) bool {
	for k := range ps {
		if !g.evalCmpOnPair(&ps[k], i, j) {
			return false
		}
	}
	return true
}

// pick returns the tuple an operand of tuple tup (1 or 2) reads on the
// pair (i, j).
func pick(tup int8, i, j int32) int32 {
	if tup == 1 {
		return i
	}
	return j
}

// groundForm1 materialises the ground steps of one compiled form-(1)
// rule on the pairs (i, j) with i >= oldN or j >= oldN. The single-tuple
// guards run before the pair loop: guard2 once per j into ok2 (a
// buffer of at least g.n entries), guard1 once per i.
func (g *Grounding) groundForm1(f *form1Rule, e *engine, oldN int32, ok2 []bool) {
	n := int32(g.n)
	for j := int32(0); j < n; j++ {
		ok2[j] = g.holdsAll(f.guard2, j, j)
	}
	for i := int32(0); i < n; i++ {
		if !g.holdsAll(f.guard1, i, i) {
			continue
		}
		jFrom := int32(0)
		if i < oldN {
			jFrom = oldN // old × old pairs are already grounded
		}
	pairs:
		for j := jFrom; j < n; j++ {
			if !ok2[j] || !g.holdsAll(f.pair, i, j) {
				continue
			}
			var preds []resid
			for k := range f.prems {
				p := &f.prems[k]
				if p.order {
					if p.strict && g.valEq(p.attr, i, j) {
						continue pairs // ≺ can never hold between equal values
					}
					preds = append(preds, resid{kind: residOrder, attr: p.attr, i: i, j: j})
					continue
				}
				tp := g.foldCmp(p, i, j)
				if tp.val.IsNull() && tp.op != rule.Ne {
					continue pairs // te[A] op null can never be satisfied
				}
				preds = append(preds, tp)
			}
			if len(preds) == 0 {
				e.pushPair(f.rhs, i, j)
				continue
			}
			g.addStep(groundStep{ruleName: f.name, attr: f.rhs, i: i, j: j, preds: preds})
		}
	}
}

// foldCmp partially evaluates a target premise te[attr] op x on the pair
// (i, j): x is read off the pair, or is the constant, whose base ID was
// resolved at compile time, so the premise fires by ID.
func (g *Grounding) foldCmp(p *premise, i, j int32) resid {
	tp := resid{kind: residTarget, attr: p.attr, op: p.op}
	if p.xt == 0 {
		tp.val, tp.valID = p.c, p.cID
	} else {
		x := pick(p.xt, i, j)
		tp.val, tp.valID = g.val(p.xa, x), g.valID(p.xa, x)
	}
	return tp
}

func (ix *form2Index) ground(schema *model.Schema, im *model.MasterRelation, f *rule.Form2, dict *model.Dict) {
	rm := im.Schema()
	cf := compiledForm2{
		name: f.RuleName,
		tgt:  int32(schema.Index(f.TargetAttr)),
		src:  int32(rm.Index(f.MasterAttr)),
	}
	var onMaster []rule.MasterCond
	for _, c := range f.Conds {
		if c.OnMaster {
			onMaster = append(onMaster, c)
			continue
		}
		cc := compiledCond{attr: int32(schema.Index(c.TargetAttr)), isConst: c.IsConst, c: c.Const}
		if !c.IsConst {
			cc.masterIdx = int32(rm.Index(c.MasterAttr))
		}
		cf.conds = append(cf.conds, cc)
	}
	// Resolve every master-side comparison value and consequence value
	// in the base once, so run-time condition matching is integer-only.
	rows := im.Tuples()
	cf.condIDs = make([][]uint32, len(rows))
	cf.consID = make([]uint32, len(rows))
	flat := make([]uint32, len(rows)*len(cf.conds))
	for rowIdx, tm := range rows {
		ids := flat[rowIdx*len(cf.conds) : (rowIdx+1)*len(cf.conds) : (rowIdx+1)*len(cf.conds)]
		for ci, c := range cf.conds {
			w := c.c
			if !c.isConst {
				w = tm.At(int(c.masterIdx))
			}
			if !w.IsNull() {
				ids[ci] = baseID(dict, w)
			}
		}
		cf.condIDs[rowIdx] = ids
		if v := tm.At(int(cf.src)); !v.IsNull() {
			cf.consID[rowIdx] = baseID(dict, v)
		}
	}
	ruleIdx := int32(len(ix.rules))
	ix.rules = append(ix.rules, cf)

	for rowIdx, tm := range rows {
		if tm.At(int(cf.src)).IsNull() {
			continue // cannot instantiate te with null
		}
		ok := true
		for _, c := range onMaster {
			// tm[B] = c folds on the concrete master tuple.
			if !tm.At(rm.Index(c.MasterAttr)).Equal(c.Const) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		entry := form2Entry{ruleIdx: ruleIdx, rowIdx: int32(rowIdx)}
		attr, want, pending := ix.nextCond(entry, nil)
		switch {
		case !pending:
			ix.zero = append(ix.zero, entry)
		case attr < 0:
			// A condition can never be satisfied (null master value).
		default:
			k := f2Key(attr, want)
			ix.trig[k] = append(ix.trig[k], entry)
		}
	}
}

// nextCond finds the first condition of entry not yet satisfied by the
// target's ID row (nil teID means nothing is known). It returns
// pending=false when all conditions hold, and the sentinel attr == -1
// when some condition can never hold (a null master value, or a te
// value that already differs). Matching is pure integer comparison
// against the pre-interned condition IDs.
func (ix *form2Index) nextCond(e form2Entry, teID []uint32) (attr int32, want uint32, pending bool) {
	f := &ix.rules[e.ruleIdx]
	ids := f.condIDs[e.rowIdx]
	for ci, c := range f.conds {
		w := ids[ci]
		if w == model.NullID {
			return -1, 0, true // never satisfiable
		}
		if teID == nil {
			return c.attr, w, true
		}
		cur := teID[c.attr]
		if cur == model.NullID {
			return c.attr, w, true
		}
		if cur != w {
			return -1, 0, true // mismatch: dead entry
		}
	}
	return 0, 0, false
}

// consequence yields a fully matched entry's consequence: the target
// attribute, the master value and its dictionary ID.
func (ix *form2Index) consequence(im *model.MasterRelation, e form2Entry) (attr int32, val model.Value, valID uint32) {
	f := &ix.rules[e.ruleIdx]
	return f.tgt, im.Tuple(int(e.rowIdx)).At(int(f.src)), f.consID[e.rowIdx]
}

// addStep appends one ground step and registers its premises in the
// trigger maps — the single write path every grounding routine funnels
// through.
//
//relacc:grounding-builder
func (g *Grounding) addStep(st groundStep) {
	idx := int32(len(g.steps))
	g.steps = append(g.steps, st)
	for pi, p := range st.preds {
		ref := predRef{step: idx, pred: int32(pi)}
		switch p.kind {
		case residOrder:
			if g.orderTrig == nil {
				g.orderTrig = make(map[uint64][]predRef)
			}
			k := trigKey(p.attr, p.i, p.j)
			g.orderTrig[k] = append(g.orderTrig[k], ref)
		case residTarget:
			if g.targetTrig == nil {
				g.targetTrig = make([][]predRef, g.nattr)
			}
			g.targetTrig[p.attr] = append(g.targetTrig[p.attr], ref)
		}
	}
}

// Run chases the specification with the given initial target template
// and returns the terminal instance. A nil template stands for the
// all-null template of the initial accuracy instance; a complete
// template makes Run the candidate-target check of Section 6.1.
// The grounding is not mutated; Run is safe for sequential reuse.
func (g *Grounding) Run(template *model.Tuple) *Result {
	if g.baseConflict != "" {
		return &Result{CR: false, Conflict: g.baseConflict}
	}
	e := newRunEngine(g, g.baseOrders.Clone())
	g.runWith(e, template)
	res := &Result{
		CR:       e.conflict == "",
		Conflict: e.conflict,
		Steps:    e.stepsApplied,
	}
	if res.CR {
		// The target leaves without its ID row, which would keep the
		// entity's overlay reachable for as long as the caller keeps it.
		res.Target = e.te.Detach()
		res.Orders = e.orders
	}
	return res
}

// runWith drives the template-dependent chase on an engine primed with
// the base snapshot (fresh, or a Checker's after reset).
func (g *Grounding) runWith(e *engine, template *model.Tuple) {
	if template != nil {
		for a := 0; a < g.nattr; a++ {
			if v := template.At(a); !v.IsNull() {
				vid, ok := template.IDIn(g.dict, a)
				if !ok {
					// Cold template (caller-built tuple, or a value
					// the overlay lacks): look the value up WITHOUT
					// interning — a long-lived serving session checking
					// novel caller values must not grow the entity's
					// append-only overlay per check. A miss maps to the
					// NoID sentinel, which is sound: an unknown value
					// equals no interned value (Lookup is
					// Norm-complete), NoID matches no group, form-(2)
					// key or premise ID, and only the template can push
					// an unknown value — one per attribute — so two
					// distinct unknowns never meet in one te slot.
					if vid, ok = g.dict.Lookup(v); !ok {
						vid = model.NoID
					}
				}
				e.pushTarget(int32(a), v, vid)
			}
		}
	}
	// λ on the base state: columns that are already maximal define te.
	// A single tuple is vacuously maximal, but λ only applies once some
	// chase step has touched the attribute's order, so for n == 1 we
	// require the (reflexive) evidence of a step (axiom ϕ9 provides it).
	for a := 0; a < g.nattr; a++ {
		counts, ids := e.counts[a*g.n:(a+1)*g.n], g.idRow(a)
		for j := 0; j < g.n; j++ {
			if counts[j] == int32(g.n-1) && (g.n > 1 || g.baseOrders.Attr(a).Has(j, j)) {
				if vid := ids[j]; vid != model.NullID {
					e.pushTarget(int32(a), g.val(int32(a), int32(j)), vid)
				}
			}
		}
	}
	for _, entry := range g.form2.zero {
		attr, val, vid := g.form2.consequence(g.im, entry)
		e.pushTarget(attr, val, vid)
	}
	for s := range g.steps {
		if e.npred[s] == 0 && !e.pushed[s] {
			e.pushStep(int32(s))
		}
	}
	e.drain()
}

// Deduce is the convenience entry point matching the paper's IsCR: it
// grounds the specification and runs the chase from the all-null
// template. It returns the terminal instance when S is Church-Rosser
// and a Result with CR == false otherwise.
func Deduce(spec Spec, opts Options) (*Result, error) {
	g, err := NewGrounding(spec, opts)
	if err != nil {
		return nil, err
	}
	return g.Run(nil), nil
}
