//go:build !race

package wal

// raceEnabled reports whether the race detector is compiled in; the
// frame-bound tests skip under it (each builds a value past maxRecord,
// and instrumentation multiplies that heap).
const raceEnabled = false
