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

// TestEraseProgramZeroAlloc pins page-store recycling: once a block has
// been programmed and erased, programming it again takes its page stores
// off the device's free lists instead of allocating.
func TestEraseProgramZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	d := testDevice(t)
	data := make([]byte, d.cal.PageDataBytes)
	spare := make([]byte, d.cal.PageSpareBytes)
	cycle := func() {
		if err := d.Erase(0); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < freeStores; p++ {
			if _, err := d.Program(0, p, data, spare, ISPPSV); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("erase/program cycle allocates %.1f/op, want 0", avg)
	}
}
