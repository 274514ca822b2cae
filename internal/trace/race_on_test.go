//go:build race

package trace_test

// raceEnabled reports whether the race detector is compiled in; the
// whole-suite miss-stream sweep cuts itself to the small benchmarks under it.
const raceEnabled = true
