package ftl

import (
	"errors"
	"math"
	"testing"

	"xlnand/internal/controller"
	"xlnand/internal/sim"
)

// blockReads returns a global block's reads-since-erase counter.
func blockReads(t *testing.T, f *FTL, global int) float64 {
	t.Helper()
	die, block := f.addr(global)
	var reads float64
	var rerr error
	if err := f.Dispatcher().WithController(die, func(c *controller.Controller) {
		reads, rerr = c.Device().BlockReads(block)
	}); err != nil || rerr != nil {
		t.Fatalf("block reads of %d: %v, %v", global, err, rerr)
	}
	return reads
}

// dieWear returns every block's P/E count on one die.
func dieWear(t *testing.T, f *FTL, die int) []float64 {
	t.Helper()
	out := make([]float64, f.geo.BlocksPerDie)
	for blk := range out {
		c, err := f.Dispatcher().Cycles(die, blk)
		if err != nil {
			t.Fatal(err)
		}
		out[blk] = c
	}
	return out
}

func stressFTL(t *testing.T) *FTL {
	return openFTL(t, 2, 4, 5, PartitionSpec{Name: "p", Blocks: 8, Mode: sim.ModeNominal})
}

// TestAgeStepsAndRefreshes: Age walks the listed dies up the 1e3, x1.6
// schedule from their most-worn block, refreshing once per step, and
// leaves the other dies alone.
func TestAgeStepsAndRefreshes(t *testing.T) {
	for _, tc := range []struct {
		name        string
		start       float64 // pre-age of die 1 block 2
		delta       float64
		refreshes   int
		endMostWorn float64
	}{
		// 1e3, 1.6e3, 2.56e3, 4.096e3, 6.5536e3, then clamped to 1e4.
		{"fresh", 0, 1e4, 6, 1e4},
		// Counted from the most-worn block: 8e3, 1.28e4, then 1.5e4.
		{"from-most-worn", 5e3, 1e4, 3, 1.5e4},
		{"zero-delta", 0, 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := stressFTL(t)
			if err := f.Dispatcher().SetCycles(1, 2, tc.start); err != nil {
				t.Fatal(err)
			}
			before := dieWear(t, f, 1)
			calls := 0
			if err := f.Age([]int{1}, tc.delta, func() error { calls++; return nil }); err != nil {
				t.Fatal(err)
			}
			if calls != tc.refreshes {
				t.Fatalf("refresh ran %d times, want %d", calls, tc.refreshes)
			}
			after := dieWear(t, f, 1)
			if got := after[2]; math.Abs(got-tc.endMostWorn) > 1e-12*max(tc.endMostWorn, 1) {
				t.Fatalf("most-worn block ends at %g, want %g", got, tc.endMostWorn)
			}
			for blk := range after {
				if math.Abs(after[blk]-before[blk]-tc.delta) > 1e-12*max(tc.endMostWorn, 1) {
					t.Fatalf("die 1 block %d gained %g, want %g", blk, after[blk]-before[blk], tc.delta)
				}
			}
			for blk, c := range dieWear(t, f, 0) {
				if c != 0 {
					t.Fatalf("unlisted die 0 block %d aged to %g", blk, c)
				}
			}
		})
	}
}

// TestAgeRefreshErrorAborts: the first refresh error stops Age and comes
// back unchanged.
func TestAgeRefreshErrorAborts(t *testing.T) {
	f := stressFTL(t)
	stop := errors.New("refresh failed")
	calls := 0
	err := f.Age([]int{0, 1}, 1e4, func() error { calls++; return stop })
	if err != stop {
		t.Fatalf("Age returned %v, want the refresh error", err)
	}
	if calls != 1 {
		t.Fatalf("refresh ran %d times after failing, want 1", calls)
	}
	if c := dieWear(t, f, 0)[0]; c != 1e3 {
		t.Fatalf("wear after the aborted first step is %g, want 1e3", c)
	}
}

// TestAgeRejectsInvalidDelta: a negative, NaN or infinite delta is an
// error before any wear moves.
func TestAgeRejectsInvalidDelta(t *testing.T) {
	f := stressFTL(t)
	for _, delta := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := f.Age([]int{0}, delta, func() error { t.Fatal("refresh ran"); return nil }); err == nil {
			t.Fatalf("delta %g accepted", delta)
		}
	}
	if c := dieWear(t, f, 0)[0]; c != 0 {
		t.Fatalf("rejected delta aged die 0 block 0 to %g", c)
	}
}

// TestDisturbReadsProgrammedBlocks: Disturb(n) adds exactly n reads to
// each programmed block and none to an erased one.
func TestDisturbReadsProgrammedBlocks(t *testing.T) {
	f := stressFTL(t)
	if _, err := f.Write("p", 0, pagePattern(3, f.geo.PageDataBytes)); err != nil {
		t.Fatal(err)
	}
	blk, err := f.BlockOf("p", 0)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := f.Partition("p")
	programmed := p.blocks[blk].id
	erased := p.blocks[p.freePool[0]].id
	progBefore, erasedBefore := blockReads(t, f, programmed), blockReads(t, f, erased)
	const n = 37
	if err := f.Disturb(n); err != nil {
		t.Fatal(err)
	}
	if got := blockReads(t, f, programmed) - progBefore; got != n {
		t.Fatalf("programmed block gained %g reads, want %d", got, n)
	}
	if got := blockReads(t, f, erased) - erasedBefore; got != 0 {
		t.Fatalf("erased block gained %g reads, want 0", got)
	}
}
