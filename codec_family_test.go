package xlnand

import (
	"bytes"
	"context"
	"testing"
	"time"

	"xlnand/internal/dispatch"
	"xlnand/internal/nand"
)

// TestWithCodecLDPCRoundTrip: the LDPC family behind Open works through
// the public queue API — write, read, family register, level recovery.
func TestWithCodecLDPCRoundTrip(t *testing.T) {
	s, err := Open(WithCodec(CodecLDPC), WithBlocks(4), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := make([]byte, s.PageSize())
	for i := range data {
		data[i] = byte(i * 31)
	}
	wr, err := writePage(s, 0, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	maxLvl := s.disp.Codec().MaxLevel()
	if wr.T < 0 || wr.T > maxLvl {
		t.Fatalf("write level %d outside LDPC rate range [0,%d]", wr.T, maxLvl)
	}
	rd, err := readPage(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rd.Data, data) {
		t.Fatal("LDPC round trip corrupted data")
	}
	if rd.T != wr.T {
		t.Fatalf("read level %d, wrote %d", rd.T, wr.T)
	}
}

// TestWithCodecLDPCSoftRecoveryThroughQueue ages a block past every
// hard reference shift and checks the whole public pipeline: the read
// recovers through the soft-decision rung, the completion reports the
// component senses, and the modelled timeline visibly pays for them.
func TestWithCodecLDPCSoftRecoveryThroughQueue(t *testing.T) {
	steps := nand.DefaultStressConfig().RetrySteps
	s, err := Open(WithCodec(CodecLDPC), WithBlocks(4), WithSeed(31),
		WithReadRetry(steps+1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := make([]byte, s.PageSize())
	for i := range data {
		data[i] = byte(i * 7)
	}
	// Deep-bake corner: raw errors past the hard caps at every ladder
	// step, inside the soft capability (see controller soft tests).
	if err := s.AgeBlock(0, 0, 2e7); err != nil {
		t.Fatal(err)
	}
	const pages = 4
	for p := 0; p < pages; p++ {
		if _, err := writePage(s, 0, p, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AdvanceTime(1e5); err != nil {
		t.Fatal(err)
	}
	q := s.NewQueue()
	softSaved := 0
	for p := 0; p < pages; p++ {
		comp, err := q.Do(context.Background(), dispatch.Request{
			Op: dispatch.OpRead, Block: 0, Page: p,
		})
		if err != nil {
			continue // a lost page is possible at this climate; soft must save some
		}
		if !bytes.Equal(comp.Data, data) {
			t.Fatalf("page %d: recovered data differs", p)
		}
		if comp.SoftSenses == 0 {
			continue // lucky hard rung
		}
		softSaved++
		if comp.Retries != steps+1 {
			t.Fatalf("page %d: %d retries, want %d", p, comp.Retries, steps+1)
		}
		// The timeline must charge every hard sense plus the multi-sense
		// soft read: strictly more than the hard-ladder-only cost of the
		// same stages.
		if comp.Latency() < comp.Read.Latency.Total() {
			t.Fatalf("page %d: completion span %v below controller latency %v",
				p, comp.Latency(), comp.Read.Latency.Total())
		}
		wantTR := time.Duration(steps+1+comp.SoftSenses) * nand.PageReadTime
		if comp.Read.Latency.TR != wantTR {
			t.Fatalf("page %d: sensing time %v, want %v", p, comp.Read.Latency.TR, wantTR)
		}
	}
	if softSaved == 0 {
		t.Fatal("no page was saved by the soft rung through the public API")
	}
}

// TestWithSoftRetryDisablesSoftRung: WithSoftRetry(0) keeps even deep
// budgets on the hard ladder.
func TestWithSoftRetryDisablesSoftRung(t *testing.T) {
	steps := nand.DefaultStressConfig().RetrySteps
	s, err := Open(WithCodec(CodecLDPC), WithBlocks(4), WithSeed(31),
		WithReadRetry(steps+4), WithSoftRetry(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := make([]byte, s.PageSize())
	if err := s.AgeBlock(0, 0, 2e7); err != nil {
		t.Fatal(err)
	}
	if _, err := writePage(s, 0, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTime(1e5); err != nil {
		t.Fatal(err)
	}
	rd, err := readPage(s, 0, 0)
	if rd.SoftSenses != 0 {
		t.Fatalf("soft rung ran with WithSoftRetry(0): %+v", rd)
	}
	_ = err // the page may well be lost without the soft rung; that is the point
}

// TestCodecFamilyBCHDefault: the default family stays BCH and its level
// semantics are unchanged t.
func TestCodecFamilyBCHDefault(t *testing.T) {
	s := openTest(t)
	defer s.Close()
	if got := s.disp.Codec().Family(); got != CodecBCH {
		t.Fatalf("default family %v, want BCH", got)
	}
	if got := s.disp.Codec().MaxLevel(); got != 65 {
		t.Fatalf("BCH max level %d, want 65", got)
	}
}
