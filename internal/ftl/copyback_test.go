package ftl

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"xlnand/internal/controller"
	"xlnand/internal/dispatch"
	"xlnand/internal/reference"
	"xlnand/internal/sim"
	"xlnand/internal/stats"
)

// storedCodeword raw-senses the physical page behind a live lpa, undoes
// the flips the sense injected, and returns the stored codeword split
// into data and spare.
func storedCodeword(t *testing.T, f *FTL, p *Partition, lpa int) (data, spare []byte) {
	t.Helper()
	enc := p.mapping[lpa]
	if enc < 0 {
		t.Fatalf("lpa %d not live", lpa)
	}
	die, block := f.addr(p.blocks[enc/p.pages].id)
	page := enc % p.pages
	if err := f.Dispatcher().WithController(die, func(c *controller.Controller) {
		cal := c.Device().Calibration()
		buf := make([]byte, cal.PageDataBytes+cal.PageSpareBytes)
		nData, nSpare, err := c.Device().ReadInto(block, page, 0, buf)
		if err != nil {
			t.Fatalf("raw sense of lpa %d: %v", lpa, err)
		}
		for _, b := range c.Device().LastSenseFlips() {
			buf[b/8] ^= 1 << uint(7-b%8)
		}
		data, spare = buf[:nData], buf[nData:nData+nSpare]
	}); err != nil {
		t.Fatal(err)
	}
	return data, spare
}

// TestMovedPagesStoreTheirCodeword drives every relocation path — GC
// under overwrites, one scrub refresh and one retirement — across a mode
// switch that changes the write level, then raw-senses every mapped page:
// each must store the data the FTL reads back and exactly the parity
// EncodeInto computes for it at the stored level. A move that programs
// the parity its read decoded (copy-back) and a move that re-encodes
// because its destination resolves a different level must both leave a
// codeword.
func TestMovedPagesStoreTheirCodeword(t *testing.T) {
	f := openFTL(t, 2, 4, 43, PartitionSpec{Name: "p", Blocks: 8, Mode: sim.ModeNominal})
	p, _ := f.Partition("p")
	codec := f.Dispatcher().Codec()
	// Worn blocks: the nominal (SV) and max-read (DV) schedules then
	// resolve different capabilities, so moves after the switch re-encode.
	for die := 0; die < 2; die++ {
		for b := 0; b < 4; b++ {
			if err := f.Dispatcher().SetCycles(die, b, 2e4); err != nil {
				t.Fatal(err)
			}
		}
	}
	const working = 3 * 64 // live data fits a retirement's spare-block check
	want := make([][]byte, working)
	seq := uint64(0)
	write := func(lpa int) {
		seq++
		want[lpa] = pagePattern(seq, f.geo.PageDataBytes)
		if _, err := f.Write("p", lpa, want[lpa]); err != nil {
			t.Fatalf("write lpa %d: %v", lpa, err)
		}
	}
	for lpa := range want {
		write(lpa)
	}
	rng := stats.NewRNG(43)
	for i := 0; i < 2*working; i++ {
		write(rng.Intn(working))
	}
	before := make([]int, working)
	for lpa := range want {
		_, spare := storedCodeword(t, f, p, lpa)
		before[lpa] = len(spare)
	}

	if err := f.SetMode("p", sim.ModeMaxRead); err != nil {
		t.Fatal(err)
	}
	// Overwrite only the lower half: pages of the upper half change level
	// only by being moved.
	gcBefore := p.GCMoves
	for i := 0; i < 2*working; i++ {
		write(rng.Intn(working / 2))
	}
	if p.GCMoves == gcBefore {
		t.Fatal("no GC move after the mode switch")
	}
	// One scrub refresh of the block holding an upper-half page.
	if _, err := f.CheckReadHealth("p", working-1, &controller.ReadResult{Corrected: 60, T: 65}, DefaultScrubPolicy()); err != nil {
		t.Fatal(err)
	}
	if rep, err := f.Scrub("p"); err != nil || rep.PagesMoved == 0 {
		t.Fatalf("scrub moved %d pages: %v", rep.PagesMoved, err)
	}
	// One retirement of the block holding another upper-half page.
	blk, err := f.BlockOf("p", working/2)
	if err != nil {
		t.Fatal(err)
	}
	die, block := f.addr(p.blocks[blk].id)
	if err := f.Dispatcher().SetCycles(die, block, 9e4); err != nil {
		t.Fatal(err)
	}
	if n, err := f.RetireWorn("p", 5e4); err != nil || n != 1 {
		t.Fatalf("retired %d blocks: %v", n, err)
	}

	reencoded := 0
	for lpa := range want {
		data, spare := storedCodeword(t, f, p, lpa)
		level, err := codec.LevelForSpare(len(spare))
		if err != nil {
			t.Fatal(err)
		}
		parity := make([]byte, len(spare))
		if err := codec.EncodeInto(level, parity, data); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(spare, parity) {
			t.Fatalf("lpa %d: stored parity is not EncodeInto's at level %d", lpa, level)
		}
		got, _, err := f.ReadInto("p", lpa, nil)
		if err != nil {
			t.Fatalf("read lpa %d: %v", lpa, err)
		}
		if !bytes.Equal(data, got) || !bytes.Equal(got, want[lpa]) {
			t.Fatalf("lpa %d: stored data, FTL read and last write differ", lpa)
		}
		if lpa >= working/2 && len(spare) != before[lpa] {
			reencoded++
		}
	}
	if reencoded == 0 {
		t.Fatal("no move changed level; the re-encode path went unexercised")
	}
	// The reference build offers moves no parity, so every move encodes.
	if offered := len(p.gc.parity) > 0 && len(p.move.parity) > 0; offered == reference.On {
		t.Fatalf("relocation parity offered = %v in a build with reference.On = %v", offered, reference.On)
	}
}

// fewestMallocs counts the heap allocations of one call of the func
// that next returns, for three fresh calls, and returns the fewest.
// Unlike testing.AllocsPerRun it makes no warm-up call: a measured move
// here fits the page stores the device parked on its last erase, which
// a second call would find used. MemStats counts the whole process, so
// the best of three keeps a stray runtime allocation out of the count.
func fewestMallocs(next func() func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fewest := uint64(math.MaxUint64)
	for range 3 {
		fn := next()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// relocationRig opens a one-die drive whose partition "p" has blocks
// blocks, fills "p" with lpas 0..63 and then overwrites lpas 0..55, so
// p's block 0 holds 8 live pages and block 1 is the frontier with 8 free
// pages. It then fills and erases the block of partition "q" (never used
// again), which parks page stores on the die for the 8 moves to fill:
// the device allocates nothing for them, and what is left is the FTL's
// and the dispatcher's.
func relocationRig(t *testing.T, blocks int) (*FTL, *Partition) {
	t.Helper()
	f := openFTL(t, 1, blocks+2, 45,
		PartitionSpec{Name: "p", Blocks: blocks, Mode: sim.ModeNominal},
		PartitionSpec{Name: "q", Blocks: 2, Mode: sim.ModeNominal})
	// A pinned capability keeps every spare the same length, so a parked
	// spare store always fits the next program.
	f.Dispatcher().PinCapability(8)
	data := pagePattern(2, f.geo.PageDataBytes)
	write := func(part string, lpas int) {
		for lpa := 0; lpa < lpas; lpa++ {
			if _, err := f.Write(part, lpa, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("p", 64)
	write("p", 56)
	write("q", 64)
	q, _ := f.Partition("q")
	die, block := f.addr(q.blocks[0].id)
	if _, err := f.q.Do(context.Background(), dispatch.Request{Op: dispatch.OpErase, Die: die, Block: block}); err != nil {
		t.Fatal(err)
	}
	p, _ := f.Partition("p")
	if p.blocks[0].livePages != 8 || p.active != 1 {
		t.Fatalf("rig: block 0 holds %d live pages, frontier %d", p.blocks[0].livePages, p.active)
	}
	return f, p
}

// TestRelocationZeroAlloc pins both relocation paths at zero
// allocations: a move reads into and programs from partition-owned page,
// parity and result scratch, so neither the FTL nor the dispatcher
// allocates for it. The scratch is made on first use, outside the count.
func TestRelocationZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	t.Run("gc", func(t *testing.T) {
		// Three blocks: the frontier's last 8 pages take lpas 0..7 again,
		// and the next write finds one pool block, so it collects block 0
		// (8 moves) before its own program.
		n := fewestMallocs(func() func() {
			f, p := relocationRig(t, 3)
			data := pagePattern(3, f.geo.PageDataBytes)
			var wres controller.WriteResult
			for lpa := 0; lpa < 8; lpa++ {
				if _, err := f.write(p, lpa, data, nil, &wres); err != nil {
					t.Fatal(err)
				}
			}
			f.relocBuf(&p.gc)
			return func() {
				if _, err := f.write(p, 8, data, nil, &wres); err != nil || p.GCMoves != 8 {
					t.Fatalf("the write made %d GC moves (%v), want 8", p.GCMoves, err)
				}
			}
		})
		if n != 0 {
			t.Fatalf("a write collecting 8 pages allocated %d times, want 0", n)
		}
	})
	t.Run("relocateLive", func(t *testing.T) {
		// Four blocks: block 0's 8 live pages fill the frontier exactly.
		n := fewestMallocs(func() func() {
			f, p := relocationRig(t, 4)
			f.relocBuf(&p.move)
			p.live = make([]liveEntry, 0, p.pages)
			return func() {
				if moved, _, err := f.relocateLive(p, p.blocks[0]); err != nil || moved != 8 {
					t.Fatalf("relocateLive moved %d pages (%v), want 8", moved, err)
				}
			}
		})
		if n != 0 {
			t.Fatalf("relocateLive of 8 pages allocated %d times, want 0", n)
		}
	})
}
