//go:build race

package chase_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
