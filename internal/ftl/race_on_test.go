//go:build race

package ftl

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
