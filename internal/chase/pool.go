package chase

import (
	"sync"

	"repro/internal/model"
)

// Checker is a reusable chase runner over a shared Grounding. Where
// Grounding.Run allocates a fresh engine — deep-cloning the base order
// matrices, O(nattr · n²/64) words — every call, a Checker keeps one
// engine alive and restores the base snapshot between runs by rewriting
// only the rows the previous run touched. The top-k algorithms issue
// thousands of checks per entity against one grounding, which is what
// makes this reuse pay.
//
// A Checker is NOT safe for concurrent use; give each goroutine its own
// (the underlying Grounding is shared safely). Use a CheckerPool to
// hand checkers out across goroutines.
type Checker struct {
	g *Grounding
	e *engine
	// kbuf is the reusable verdict-key buffer; hit holds the cached
	// target of the last CheckConflict that was answered from the
	// verdict cache (nil when the last check actually ran).
	kbuf []byte
	hit  *model.Tuple
}

// NewChecker creates a reusable checker over g.
func (g *Grounding) NewChecker() *Checker {
	return &Checker{g: g, e: newRunEngine(g, true)}
}

// Check reports whether the specification revised with the given target
// template is Church-Rosser — the candidate check of Section 6.1. It is
// equivalent to g.Run(template).CR but reuses the checker's buffers,
// performing (almost) no allocation per call.
func (c *Checker) Check(template *model.Tuple) bool {
	return c.CheckConflict(template) == ""
}

// CheckConflict is Check with the conflict description: it returns ""
// when the revised specification is Church-Rosser and the first invalid
// step's description otherwise.
//
// Checks are memoised in the grounding version's verdict cache
// (cache.go): a template whose packed value-ID row was checked before
// against this version answers without running the chase. The verdict
// is identical either way — the check is a pure function of (version,
// ID row) — so memoisation is invisible except in VerdictCacheStats.
func (c *Checker) CheckConflict(template *model.Tuple) string {
	if c.g.baseConflict != "" {
		return c.g.baseConflict
	}
	c.hit = nil
	vc := &c.g.verdicts
	var key []byte
	cacheable := false
	if vc.counts != nil {
		key, cacheable = c.g.verdictKey(template, c.kbuf)
		c.kbuf = key
		if cacheable {
			if ent, ok := vc.get(key); ok {
				c.hit = ent.target
				return ent.conflict
			}
		}
	}
	c.e.reset()
	c.g.runWith(c.e, template)
	if cacheable {
		ent := verdictEntry{conflict: c.e.conflict}
		if ent.conflict == "" {
			ent.target = c.e.te.Clone()
		}
		vc.put(key, ent)
	}
	return c.e.conflict
}

// Target returns the target tuple deduced by the last successful Check,
// cloned so it survives the checker's next run. It is only meaningful
// immediately after a Check that returned true. When that check was
// answered from the verdict cache, the returned tuple is the target
// deduced for the first Norm-equal template checked against this
// version — identical to this template's deduction up to
// model.Value.Norm (the equivalence the cache key is built on). Like
// Run's target, it carries no ID row, so it does not keep the entity's
// overlay reachable.
func (c *Checker) Target() *model.Tuple {
	if c.hit != nil {
		return c.hit.Clone().Detach()
	}
	return c.e.te.Clone().Detach()
}

// CheckerPool is a sync.Pool-backed pool of Checkers over one
// Grounding: concurrent candidate verification borrows an engine,
// runs, and returns it, so steady-state checking allocates nothing and
// the number of live engines tracks the number of goroutines actually
// checking.
type CheckerPool struct {
	g    *Grounding
	pool sync.Pool
}

// NewCheckerPool creates a pool of checkers over g.
func NewCheckerPool(g *Grounding) *CheckerPool {
	p := &CheckerPool{g: g}
	p.pool.New = func() any { return g.NewChecker() }
	return p
}

// Get borrows a checker; return it with Put when done.
func (p *CheckerPool) Get() *Checker { return p.pool.Get().(*Checker) }

// Put returns a borrowed checker to the pool.
func (p *CheckerPool) Put(c *Checker) { p.pool.Put(c) }

// Check borrows a checker for a single candidate check.
func (p *CheckerPool) Check(template *model.Tuple) bool {
	c := p.Get()
	ok := c.Check(template)
	p.Put(c)
	return ok
}

// Pool returns the grounding's shared checker pool, creating it on
// first use. All callers verifying candidates against g — the top-k
// algorithms, Session.Check, user code — share one pool so engines are
// reused across call sites.
//
// The write to g.pool is lazy construction, made once-only by
// poolOnce; the pool is deduction machinery, not deduced state.
//
//relacc:grounding-builder
func (g *Grounding) Pool() *CheckerPool {
	g.poolOnce.Do(func() { g.pool = NewCheckerPool(g) })
	return g.pool
}
