package nand

import (
	"testing"

	"xlnand/internal/stats"
)

// TestReadLevelsIntoZeroAlloc pins the buffer-reuse contract of the
// batched sensing path: once the caller supplies the level buffer,
// repeated reads allocate nothing.
func TestReadLevelsIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	sim, aged := freshPage(t, 11)
	r := stats.NewRNG(12)
	if _, err := sim.Program(mixedTargets(r, testCells), ISPPSV, aged); err != nil {
		t.Fatal(err)
	}
	dst := make([]Level, sim.Cells())
	avg := testing.AllocsPerRun(20, func() {
		sim.ReadLevelsInto(dst, aged, ReadOffsets{})
	})
	if avg != 0 {
		t.Fatalf("ReadLevelsInto allocates %.1f/op, want 0", avg)
	}
}
