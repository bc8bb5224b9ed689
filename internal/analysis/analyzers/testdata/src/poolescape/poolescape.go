// Package poolescape exercises the pooled-value ownership analyzer:
// values from a sync.Pool must stay function-scoped until Put, whether
// they were taken by a plain or a comma-ok type assertion, and no
// accessor is exempt.
package poolescape

import "sync"

type checker struct{ scratch []int }

type pool struct {
	pool sync.Pool
	held *checker
}

var global *checker

// returned: handing the pooled value to the caller, who cannot be
// seen to Put it.
func returned(p *pool) *checker {
	v := p.pool.Get().(*checker)
	return v // want `sync.Pool value escapes before Put \(returned to the caller\)`
}

// storedGlobal parks the pooled value in a package variable.
func storedGlobal(p *pool) {
	v := p.pool.Get().(*checker)
	global = v // want `sync.Pool value escapes before Put \(stored to a field, element or package variable\)`
	p.pool.Put(v)
}

// storedField parks it in a struct field — same hazard, heap-shaped.
func storedField(p *pool) {
	v := p.pool.Get().(*checker)
	p.held = v // want `sync.Pool value escapes before Put \(stored to a field, element or package variable\)`
	p.pool.Put(v)
}

// sent ships the pooled value to another goroutine.
func sent(p *pool, ch chan *checker) {
	v := p.pool.Get().(*checker)
	ch <- v // want `sync.Pool value escapes before Put \(sent on a channel\)`
	p.pool.Put(v)
}

// appended hides the pooled value inside a slice that outlives it.
func appended(p *pool, out []*checker) []*checker {
	v := p.pool.Get().(*checker)
	out = append(out, v) // want `sync.Pool value escapes before Put \(appended to a slice\)`
	p.pool.Put(v)
	return out
}

// borrowed: passing the pooled value DOWN a call is borrowing, not
// escaping; Get-use-Put with a deferred Put is the canonical shape.
func borrowed(p *pool, xs []int) int {
	v := p.pool.Get().(*checker)
	defer p.pool.Put(v)
	return use(v, xs)
}

func use(c *checker, xs []int) int {
	c.scratch = append(c.scratch[:0], xs...)
	return len(c.scratch)
}

// Get hands the pooled value out. A method named Get on the type that
// owns the pool is no exception: its caller holds a Put obligation the
// analysis cannot see discharged.
func (p *pool) Get() *checker {
	return p.pool.Get().(*checker) // want `sync.Pool value escapes before Put \(returned to the caller\)`
}

// commaOK: the comma-ok assertion binds the pooled value just as the
// single-value form does.
func commaOK(p *pool) {
	v, ok := p.pool.Get().(*checker)
	if ok {
		global = v // want `sync.Pool value escapes before Put \(stored to a field, element or package variable\)`
	}
	p.pool.Put(v)
}

// commaBlank: discarding the ok changes nothing.
func commaBlank(p *pool) *checker {
	v, _ := p.pool.Get().(*checker)
	return v // want `sync.Pool value escapes before Put \(returned to the caller\)`
}

// commaField: a comma-ok assertion straight into a field escapes at
// once.
func commaField(p *pool) bool {
	var ok bool
	p.held, ok = p.pool.Get().(*checker) // want `sync.Pool value escapes before Put \(stored to a field, element or package variable\)`
	return ok
}

// borrowedOrNew is the shape of chase's Grounding.Check: take an idle
// value or make one (a pool with no New returns nil), use it, Put it
// back.
func borrowedOrNew(p *pool, xs []int) int {
	v, _ := p.pool.Get().(*checker)
	if v == nil {
		v = &checker{}
	}
	n := use(v, xs)
	p.pool.Put(v)
	return n
}

// rebound: once the variable is overwritten with a non-pooled value,
// returning it is fine.
func rebound(p *pool) *checker {
	v := p.pool.Get().(*checker)
	p.pool.Put(v)
	v = &checker{}
	return v
}

var _ = returned
var _ = storedGlobal
var _ = storedField
var _ = sent
var _ = appended
var _ = borrowed
var _ = rebound
var _ = commaOK
var _ = commaBlank
var _ = commaField
var _ = borrowedOrNew
