// Package lockscope exercises the no-lock-across-deduction analyzer:
// direct and transitive calls into deduction entry points under a held
// mutex are flagged; release-before-deduce, exempted fields and
// unrelated helpers are not.
package lockscope

import (
	"sync"

	"repro/internal/chase"
)

type registry struct {
	mu sync.RWMutex // a routing lock: must never cover deduction

	// entMu serialises extend+commit+re-deduce by design, like the real
	// per-entity lock.
	//
	//relacc:lock-held-over-deduction
	entMu sync.Mutex

	g *chase.Grounding
}

// direct: the textbook violation.
func (r *registry) direct() int {
	r.mu.Lock()
	n := r.g.Run() // want `r.mu is still held at this call to Run`
	r.mu.Unlock()
	return n
}

// checked: a candidate check runs the chase like Run does.
func (r *registry) checked() bool {
	r.mu.RLock()
	ok := r.g.Check() // want `r.mu is still held at this call to Check`
	r.mu.RUnlock()
	return ok
}

// underDefer: a deferred Unlock holds the lock to the end of the
// function, so the call is still covered.
func (r *registry) underDefer(vals []uint32) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.g.Extend(vals).Hint // want `r.mu is still held at this call to Extend`
}

// transitive: calling a same-package helper that deduces is as bad as
// deducing directly.
func (r *registry) transitive() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deduce() // want `r.mu is still held at this call to deduce`
}

func (r *registry) deduce() int { return r.g.Run() }

// releaseFirst: the correct shape — snapshot under the lock, release,
// then deduce.
func (r *registry) releaseFirst() int {
	r.mu.RLock()
	g := r.g
	r.mu.RUnlock()
	return g.Run()
}

// exempted: entMu is declared lock-held-over-deduction; holding it
// across Run is the design.
func (r *registry) exempted() int {
	r.entMu.Lock()
	defer r.entMu.Unlock()
	return r.g.Run()
}

// cheapUnderLock: helpers that do not reach deduction are fine under
// the lock.
func (r *registry) cheapUnderLock() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.count()
}

func (r *registry) count() int { return 1 }

var _ = (*registry).direct
var _ = (*registry).checked
var _ = (*registry).underDefer
var _ = (*registry).transitive
var _ = (*registry).releaseFirst
var _ = (*registry).exempted
var _ = (*registry).cheapUnderLock
