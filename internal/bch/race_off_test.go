//go:build !race

package bch

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
