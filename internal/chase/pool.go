package chase

import "repro/internal/model"

// checker is a reusable chase runner over a shared Grounding. Where
// Grounding.Run allocates a fresh engine — deep-cloning the base order
// matrices, O(nattr · n²/64) words — every call, a checker keeps one
// engine alive and restores the base snapshot between runs by rewriting
// only the rows the previous run touched. The top-k algorithms issue
// thousands of checks per entity against one grounding, which is what
// makes this reuse pay.
//
// A checker is NOT safe for concurrent use: Grounding.Check lends each
// caller one of the version's idle checkers, so no two goroutines hold
// the same one (the underlying Grounding is shared safely).
type checker struct {
	g *Grounding
	e *engine
	// kbuf is the reusable verdict-key buffer.
	kbuf []byte
}

// newChecker creates a reusable checker over g. Its engine clones the
// base orders with dirty-row tracking, so each reset rewrites only the
// rows the previous check modified.
func (g *Grounding) newChecker() *checker {
	return &checker{g: g, e: newRunEngine(g, g.baseOrders.CloneTracked())}
}

// conflict checks the specification revised with the given target
// template — the candidate check of Section 6.1 — and returns "" when
// it is Church-Rosser and the first invalid step's description
// otherwise. It answers as g.Run(template) does but reuses the
// checker's buffers, performing no allocation per call.
//
// Checks are memoised in the grounding version's verdict cache
// (cache.go): a template whose packed value-ID row was checked before
// against this version answers without running the chase. The verdict
// is identical either way — the check is a pure function of (version,
// ID row) — so memoisation is invisible except in VerdictCacheStats.
func (c *checker) conflict(template *model.Tuple) string {
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

// Check reports whether the specification revised with the given
// target template is Church-Rosser — the candidate check of Section
// 6.1, equivalent to g.Run(template).CR. It borrows a checker from g's
// idle checkers, so callers on any number of goroutines share the
// version's engines: steady-state checking allocates nothing, and the
// number of live engines tracks the number of goroutines actually
// checking. All callers verifying candidates against g — the top-k
// algorithms, Session.Check, user code — go through here.
func (g *Grounding) Check(template *model.Tuple) bool {
	c, _ := g.checkers.Get().(*checker)
	if c == nil {
		c = g.newChecker()
	}
	ok := c.conflict(template) == ""
	g.checkers.Put(c)
	return ok
}
