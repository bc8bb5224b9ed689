package chase

import "repro/internal/model"

// Checker is a reusable chase runner over a shared Grounding. Where
// Grounding.Run allocates a fresh engine — deep-cloning the base order
// matrices, O(nattr · n²/64) words — every call, a Checker keeps one
// engine alive and restores the base snapshot between runs by rewriting
// only the rows the previous run touched. The top-k algorithms issue
// thousands of checks per entity against one grounding, which is what
// makes this reuse pay.
//
// A Checker is NOT safe for concurrent use; give each goroutine its own
// (the underlying Grounding is shared safely), or call Grounding.Check,
// which borrows one from the version's idle checkers.
type Checker struct {
	g *Grounding
	e *engine
	// kbuf is the reusable verdict-key buffer.
	kbuf []byte
}

// NewChecker creates a reusable checker over g. Its engine clones the
// base orders with dirty-row tracking, so each reset rewrites only the
// rows the previous check modified.
func (g *Grounding) NewChecker() *Checker {
	return &Checker{g: g, e: newRunEngine(g, g.baseOrders.CloneTracked())}
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
	vc := &c.g.verdicts
	cacheable := false
	if vc.counts != nil {
		c.kbuf, cacheable = c.g.verdictKey(template, c.kbuf)
	}
	if cacheable {
		if conflict, ok := vc.get(c.kbuf); ok {
			return conflict
		}
	}
	c.e.reset()
	c.g.runWith(c.e, template)
	if cacheable {
		vc.put(c.kbuf, c.e.conflict)
	}
	return c.e.conflict
}

// Check is Checker.Check on a checker borrowed from g's idle checkers,
// so callers on any number of goroutines share the version's engines:
// steady-state checking allocates nothing, and the number of live
// engines tracks the number of goroutines actually checking. All
// callers verifying candidates against g — the top-k algorithms,
// Session.Check, user code — go through here.
func (g *Grounding) Check(template *model.Tuple) bool {
	c, _ := g.checkers.Get().(*Checker)
	if c == nil {
		c = g.NewChecker()
	}
	ok := c.Check(template)
	g.checkers.Put(c)
	return ok
}
