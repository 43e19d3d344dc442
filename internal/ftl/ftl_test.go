package ftl

import (
	"bytes"
	"testing"

	"xlnand/internal/controller"
	"xlnand/internal/dispatch"
	"xlnand/internal/nand"
	"xlnand/internal/sim"
	"xlnand/internal/stats"
)

// openFTL opens a drive for FTL tests and closes it when the test ends.
func openFTL(t *testing.T, dies, blocks int, seed uint64, specs ...PartitionSpec) *FTL {
	t.Helper()
	f, err := Open(dispatch.Config{
		Dies: dies, BlocksPerDie: blocks, Seed: seed,
		Env: sim.DefaultEnv(), Controller: controller.DefaultConfig(),
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Dispatcher().Close() })
	return f
}

// newFTL builds an FTL over a small device with the three paper service
// levels as partitions.
func newFTL(t *testing.T, blocksPerPart int) *FTL {
	t.Helper()
	return openFTL(t, 1, 3*blocksPerPart, 321,
		PartitionSpec{Name: "system", Blocks: blocksPerPart, Mode: sim.ModeMinUBER},
		PartitionSpec{Name: "media", Blocks: blocksPerPart, Mode: sim.ModeMaxRead},
		PartitionSpec{Name: "scratch", Blocks: blocksPerPart, Mode: sim.ModeNominal},
	)
}

func pagePattern(seed uint64, size int) []byte {
	r := stats.NewRNG(seed)
	out := make([]byte, size)
	for i := range out {
		out[i] = byte(r.Intn(256))
	}
	return out
}

func TestOpenValidation(t *testing.T) {
	cfg := dispatch.Config{
		Dies: 1, BlocksPerDie: 4, Seed: 1,
		Env: sim.DefaultEnv(), Controller: controller.DefaultConfig(),
	}
	for _, specs := range [][]PartitionSpec{
		nil,                      // no partitions
		{{Name: "x", Blocks: 1}}, // below the 2-block minimum
		{{Name: "x", Blocks: 8}}, // more blocks than the device
	} {
		if _, err := Open(cfg, specs); err == nil {
			t.Fatalf("partitions %+v accepted", specs)
		}
	}
	cfg.Dies = 0
	if _, err := Open(cfg, []PartitionSpec{{Name: "x", Blocks: 2}}); err == nil {
		t.Fatal("zero-die dispatcher accepted")
	}
}

// TestMultiDieStriping verifies that a partition's global block ids
// stripe round-robin across dies and that round trips work on every die.
func TestMultiDieStriping(t *testing.T) {
	f := openFTL(t, 2, 4, 99, PartitionSpec{Name: "data", Blocks: 6, Mode: sim.ModeMaxRead})
	p, _ := f.Partition("data")
	seen := map[int]bool{}
	for _, bs := range p.blocks {
		die, blk := f.addr(bs.id)
		if blk >= 4 || die >= 2 {
			t.Fatalf("block %d mapped outside geometry: die %d block %d", bs.id, die, blk)
		}
		seen[die] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatal("partition blocks did not spread across both dies")
	}
	data := pagePattern(7, 4096)
	for lpa := 0; lpa < 2*p.pages; lpa++ { // spans >1 physical block
		if _, err := f.Write("data", lpa, data); err != nil {
			t.Fatal(err)
		}
	}
	for _, lpa := range []int{0, p.pages, 2*p.pages - 1} {
		got, _, err := f.ReadInto("data", lpa, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("lpa %d corrupted across dies", lpa)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := newFTL(t, 2)
	data := pagePattern(1, 4096)
	if _, err := f.Write("media", 5, data); err != nil {
		t.Fatal(err)
	}
	got, res, err := f.ReadInto("media", 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip corrupted data")
	}
	if res.Alg != nand.ISPPDV {
		t.Fatalf("media partition wrote with %v, want ISPP-DV", res.Alg)
	}
}

func TestPartitionModesSteerKnobs(t *testing.T) {
	f := newFTL(t, 2)
	data := pagePattern(2, 4096)
	for _, part := range []string{"system", "media", "scratch"} {
		if _, err := f.Write(part, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	sys, resSys, err := f.ReadInto("system", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, resScr, err := f.ReadInto("scratch", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sys, data) {
		t.Fatal("system data corrupted")
	}
	if resSys.Alg != nand.ISPPDV {
		t.Fatal("min-UBER partition must program with DV")
	}
	if resScr.Alg != nand.ISPPSV {
		t.Fatal("nominal partition must program with SV")
	}
}

func TestReadErrors(t *testing.T) {
	f := newFTL(t, 2)
	if _, _, err := f.ReadInto("media", 0, nil); err == nil {
		t.Fatal("read of unwritten lpa accepted")
	}
	if _, _, err := f.ReadInto("nope", 0, nil); err == nil {
		t.Fatal("unknown partition accepted")
	}
	if _, _, err := f.ReadInto("media", 1<<20, nil); err == nil {
		t.Fatal("out-of-range lpa accepted")
	}
	if _, err := f.Write("media", -1, nil); err == nil {
		t.Fatal("negative lpa accepted")
	}
}

func TestOverwriteRemaps(t *testing.T) {
	f := newFTL(t, 2)
	v1 := pagePattern(3, 4096)
	v2 := pagePattern(4, 4096)
	if _, err := f.Write("scratch", 7, v1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write("scratch", 7, v2); err != nil {
		t.Fatal(err)
	}
	got, _, err := f.ReadInto("scratch", 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("overwrite did not supersede old version")
	}
	p, _ := f.Partition("scratch")
	if p.HostWrites != 2 {
		t.Fatalf("host writes = %d", p.HostWrites)
	}
}

func TestTrim(t *testing.T) {
	f := newFTL(t, 2)
	if _, err := f.Write("scratch", 3, pagePattern(5, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := f.Trim("scratch", 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ReadInto("scratch", 3, nil); err == nil {
		t.Fatal("trimmed page still readable")
	}
	// Trimming an unwritten page is a no-op.
	if err := f.Trim("scratch", 4); err != nil {
		t.Fatal(err)
	}
	p, _ := f.Partition("scratch")
	if p.Trims != 1 {
		t.Fatalf("trims = %d", p.Trims)
	}
}

func TestGarbageCollectionSustainsOverwrites(t *testing.T) {
	if testing.Short() {
		t.Skip("GC endurance test skipped in -short mode")
	}
	f := newFTL(t, 3) // 3 blocks x 64 pages, 128 user pages
	p, _ := f.Partition("scratch")
	data := pagePattern(6, 4096)
	// Overwrite a working set larger than one block far beyond the raw
	// capacity: GC must relocate still-live pages and reclaim superseded
	// ones indefinitely.
	const workingSet = 80
	for i := 0; i < 6*64; i++ {
		lpa := i % workingSet
		if _, err := f.Write("scratch", lpa, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if p.Erases == 0 {
		t.Fatal("GC never erased a block")
	}
	if p.GCMoves == 0 {
		t.Fatal("GC never relocated a live page")
	}
	if wa := p.WriteAmplification(); wa < 1 || wa > 4 {
		t.Fatalf("write amplification %v implausible for a %d-page working set", wa, workingSet)
	}
	// All live data still intact.
	for lpa := 0; lpa < workingSet; lpa++ {
		got, _, err := f.ReadInto("scratch", lpa, nil)
		if err != nil {
			t.Fatalf("read lpa %d after GC: %v", lpa, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("lpa %d corrupted after GC", lpa)
		}
	}
}

func TestCapacityExhaustion(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity test skipped in -short mode")
	}
	f := newFTL(t, 2) // 64 user pages + 64 OP
	data := pagePattern(7, 4096)
	// Fill every logical page (fits), then keep all live and try to
	// exceed: the partition must fail cleanly, not corrupt.
	p, _ := f.Partition("scratch")
	for lpa := 0; lpa < p.Capacity(); lpa++ {
		if _, err := f.Write("scratch", lpa, data); err != nil {
			t.Fatalf("fill write %d: %v", lpa, err)
		}
	}
	// Everything is live; continued overwrites still work (each write
	// supersedes itself), which exercises GC with maximum live pressure.
	for i := 0; i < 32; i++ {
		if _, err := f.Write("scratch", i%p.Capacity(), data); err != nil {
			t.Fatalf("overwrite at full capacity: %v", err)
		}
	}
}

func TestWearLevelling(t *testing.T) {
	if testing.Short() {
		t.Skip("wear test skipped in -short mode")
	}
	f := newFTL(t, 3)
	data := pagePattern(8, 4096)
	for i := 0; i < 5*64; i++ {
		if _, err := f.Write("scratch", i%16, data); err != nil {
			t.Fatal(err)
		}
	}
	min, max, err := f.WearSpread("scratch")
	if err != nil {
		t.Fatal(err)
	}
	if max == 0 {
		t.Fatal("no wear recorded")
	}
	if max-min > 4 {
		t.Fatalf("wear spread %v..%v too wide for wear-aware GC", min, max)
	}
}

func TestPartitionIsolation(t *testing.T) {
	// Traffic in one partition must not touch another's blocks.
	f := newFTL(t, 2)
	data := pagePattern(9, 4096)
	if _, err := f.Write("media", 0, data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := f.Write("scratch", i%8, data); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := f.ReadInto("media", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("media data disturbed by scratch traffic")
	}
	// Scratch wear must not leak onto media blocks.
	_, maxMedia, err := f.WearSpread("media")
	if err != nil {
		t.Fatal(err)
	}
	if maxMedia > 0 {
		t.Fatalf("media blocks erased %v times by foreign traffic", maxMedia)
	}
}

func TestServiceTimeAccounting(t *testing.T) {
	f := newFTL(t, 2)
	data := pagePattern(10, 4096)
	if _, err := f.Write("media", 0, data); err != nil {
		t.Fatal(err)
	}
	p, _ := f.Partition("media")
	afterWrite := p.ServiceTime
	if afterWrite <= 0 {
		t.Fatal("write time not accounted")
	}
	if _, _, err := f.ReadInto("media", 0, nil); err != nil {
		t.Fatal(err)
	}
	if p.ServiceTime <= afterWrite {
		t.Fatal("read time not accounted")
	}
}

// TestReadIntoNilDstOwnsPage: a nil-dst read hands back a page and a
// result of its own — the next read overwrites neither — while reads
// into a caller buffer share the partition's result scratch.
func TestReadIntoNilDstOwnsPage(t *testing.T) {
	f := newFTL(t, 3)
	first, second := pagePattern(41, f.geo.PageDataBytes), pagePattern(42, f.geo.PageDataBytes)
	for lpa, data := range [][]byte{first, second} {
		if _, err := f.Write("scratch", lpa, data); err != nil {
			t.Fatal(err)
		}
	}
	got, res, err := f.ReadInto("scratch", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, first) {
		t.Fatal("first read returned wrong data")
	}
	got2, res2, err := f.ReadInto("scratch", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, second) {
		t.Fatal("second read returned wrong data")
	}
	if !bytes.Equal(got, first) {
		t.Fatal("second read overwrote the first read's page")
	}
	if res == res2 || !bytes.Equal(res.Data, first) {
		t.Fatal("second read overwrote the first read's result")
	}
	buf := make([]byte, f.geo.PageDataBytes)
	_, res3, err := f.ReadInto("scratch", 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	_, res4, err := f.ReadInto("scratch", 1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if res3 != res4 {
		t.Fatal("buffered reads do not share the partition's result scratch")
	}
}
