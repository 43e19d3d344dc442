package ftl

import (
	"bytes"
	"testing"

	"xlnand/internal/controller"
)

func TestCheckReadHealthValidation(t *testing.T) {
	f := newFTL(t, 2)
	if _, err := f.CheckReadHealth("scratch", 0, nil, ScrubPolicy{FractionOfT: 0}); err == nil {
		t.Fatal("zero threshold accepted")
	}
	if _, err := f.CheckReadHealth("scratch", 0, nil, DefaultScrubPolicy()); err == nil {
		t.Fatal("unwritten lpa accepted")
	}
	if _, err := f.CheckReadHealth("nope", 0, nil, DefaultScrubPolicy()); err == nil {
		t.Fatal("unknown partition accepted")
	}
}

func TestHealthyReadsDoNotMark(t *testing.T) {
	f := newFTL(t, 2)
	data := pagePattern(20, 4096)
	if _, err := f.Write("scratch", 0, data); err != nil {
		t.Fatal(err)
	}
	_, res, err := f.ReadInto("scratch", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	marked, err := f.CheckReadHealth("scratch", 0, res, DefaultScrubPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if marked {
		t.Fatal("fresh healthy read marked for scrub")
	}
	p, _ := f.Partition("scratch")
	if p.PendingScrubs() != 0 {
		t.Fatal("pending scrubs on a healthy partition")
	}
}

func TestDegradedReadsMarkAndScrubHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("scrub integration skipped in -short mode")
	}
	f := newFTL(t, 3)
	p, _ := f.Partition("scratch")
	data := pagePattern(21, 4096)
	if _, err := f.Write("scratch", 0, data); err != nil {
		t.Fatal(err)
	}
	// Age the physical block under the page so the correction margin
	// thins (the page was written at t=3; a couple of raw errors per
	// read is a 2/3 margin burn) and add a mild bake.
	physBlock := p.blocks[p.mapping[0]/p.pages].id
	die, blk := f.addr(physBlock)
	if err := f.q.Dispatcher().SetCycles(die, blk, 1e4); err != nil {
		t.Fatal(err)
	}
	if err := f.q.Dispatcher().AdvanceTime(1e3); err != nil {
		t.Fatal(err)
	}

	// Read until the health check trips (corrected errors vs t=3-ish
	// margin at that wear; use an aggressive threshold to be
	// deterministic about tripping).
	pol := ScrubPolicy{FractionOfT: 0.05}
	marked := false
	var res *controller.ReadResult
	for i := 0; i < 50 && !marked; i++ {
		var err error
		_, res, err = f.ReadInto("scratch", 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		marked, err = f.CheckReadHealth("scratch", 0, res, pol)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !marked {
		t.Skipf("degradation did not trip the %v threshold (corrected=%d of t=%d)",
			pol.FractionOfT, res.Corrected, res.T)
	}
	if p.PendingScrubs() != 1 {
		t.Fatalf("pending scrubs = %d", p.PendingScrubs())
	}
	rep, err := f.Scrub("scratch")
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRefreshed != 1 || rep.PagesMoved < 1 {
		t.Fatalf("scrub report %+v", rep)
	}
	if p.PendingScrubs() != 0 {
		t.Fatal("marks not cleared after scrub")
	}
	// Data survives and now lives on a fresh physical page.
	got, _, err := f.ReadInto("scratch", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("scrub lost data")
	}
	newBlock := p.blocks[p.mapping[0]/p.pages].id
	if newBlock == physBlock {
		t.Fatal("scrub did not relocate the page")
	}
}

func TestScrubOnCleanPartitionIsNoop(t *testing.T) {
	f := newFTL(t, 2)
	rep, err := f.Scrub("scratch")
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRefreshed != 0 || rep.PagesMoved != 0 {
		t.Fatalf("no-op scrub produced %+v", rep)
	}
}

func TestScrubDoubleMarkDeduplicated(t *testing.T) {
	f := newFTL(t, 2)
	data := pagePattern(22, 4096)
	if _, err := f.Write("scratch", 0, data); err != nil {
		t.Fatal(err)
	}
	res := &controller.ReadResult{Corrected: 100, T: 3} // synthetic alarm
	first, err := f.CheckReadHealth("scratch", 0, res, DefaultScrubPolicy())
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.CheckReadHealth("scratch", 0, res, DefaultScrubPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !first || second {
		t.Fatalf("mark dedup broken: %v %v", first, second)
	}
	p, _ := f.Partition("scratch")
	if p.PendingScrubs() != 1 {
		t.Fatalf("pending = %d", p.PendingScrubs())
	}
}

// TestScrubRewriteThatCollectsKeepsData pins the relocation read pages:
// a scrub relocation whose rewrite finds the frontier sealed runs a GC
// round before its own program, and the GC's reads must not land in the
// page still holding the data being relocated.
func TestScrubRewriteThatCollectsKeepsData(t *testing.T) {
	f := newFTL(t, 3)
	p, _ := f.Partition("scratch")
	write := func(lpa int, version uint64) {
		t.Helper()
		if _, err := f.Write("scratch", lpa, pagePattern(version<<16|uint64(lpa), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	// Fill blocks 0 and 1, then overwrite lpa 0: the GC round it needs
	// moves block 0 into block 2, which the overwrite then seals.
	for lpa := 0; lpa < p.Capacity(); lpa++ {
		write(lpa, 0)
	}
	write(0, 1)
	if len(p.freePool) != 1 || p.blocks[p.active].writePtr != p.pages {
		t.Fatalf("setup: free pool %v, frontier at %d", p.freePool, p.blocks[p.active].writePtr)
	}
	// Scrub block 1: its first rewrite has to collect (block 1 itself,
	// now the emptiest sealed block) before it can program.
	erases := p.Erases
	p.scrubMarks = map[int]bool{1: true}
	if _, err := f.Scrub("scratch"); err != nil {
		t.Fatal(err)
	}
	if p.Erases == erases {
		t.Fatal("the scrub rewrite did not run a GC round")
	}
	for lpa := 0; lpa < p.Capacity(); lpa++ {
		got, _, err := f.ReadInto("scratch", lpa, nil)
		if err != nil {
			t.Fatal(err)
		}
		version := uint64(0)
		if lpa == 0 {
			version = 1
		}
		if !bytes.Equal(got, pagePattern(version<<16|uint64(lpa), 4096)) {
			t.Fatalf("lpa %d lost its content across the scrub", lpa)
		}
	}
}
