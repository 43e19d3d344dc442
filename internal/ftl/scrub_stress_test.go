package ftl

import (
	"bytes"
	"testing"

	"xlnand/internal/controller"
)

// TestRepeatedScrubsDoNotLeakBlocks runs many mark/scrub cycles against
// steady host traffic and verifies the partition's free-space accounting
// never degrades (the stranded-block regression test).
func TestRepeatedScrubsDoNotLeakBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("scrub stress skipped in -short mode")
	}
	f := newFTL(t, 3)
	p, _ := f.Partition("scratch")
	data := pagePattern(30, 4096)

	for round := 0; round < 8; round++ {
		// Host traffic.
		for i := 0; i < 40; i++ {
			if _, err := f.Write("scratch", i%30, data); err != nil {
				t.Fatalf("round %d write %d: %v", round, i, err)
			}
		}
		// Synthetic health alarms on a couple of live pages.
		for _, lpa := range []int{0, 15} {
			res := &controller.ReadResult{Corrected: 60, T: 65}
			if _, err := f.CheckReadHealth("scratch", lpa, res, DefaultScrubPolicy()); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if _, err := f.Scrub("scratch"); err != nil {
			t.Fatalf("round %d scrub: %v", round, err)
		}
		// Accounting invariants: every block is exactly one of frontier,
		// pool member, or data block; the pool is duplicate-free.
		seen := map[int]bool{}
		for _, idx := range p.freePool {
			if seen[idx] {
				t.Fatalf("round %d: duplicate pool entry %d", round, idx)
			}
			seen[idx] = true
			if idx == p.active {
				t.Fatalf("round %d: active block in pool", round)
			}
			if p.blocks[idx].writePtr != 0 || p.blocks[idx].livePages != 0 {
				t.Fatalf("round %d: dirty block %d in pool", round, idx)
			}
		}
	}
	// All live data intact after the churn.
	for lpa := 0; lpa < 30; lpa++ {
		got, _, err := f.ReadInto("scratch", lpa, nil)
		if err != nil {
			t.Fatalf("final read %d: %v", lpa, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("lpa %d corrupted", lpa)
		}
	}
}
