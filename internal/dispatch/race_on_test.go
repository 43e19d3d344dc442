//go:build race

package dispatch

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
