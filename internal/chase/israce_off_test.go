//go:build !race

package chase_test

// raceEnabled reports whether the race detector is compiled in; the
// allocation-bound test skips under it (instrumentation allocates).
const raceEnabled = false
