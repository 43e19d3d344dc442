package ftl

import (
	"testing"

	"xlnand/internal/sim"
)

// guardFTL builds a single-partition FTL with the disturb-aware retry
// guard installed.
func guardFTL(t *testing.T, pol ScrubPolicy) *FTL {
	t.Helper()
	f := openFTL(t, 1, 4, 99, PartitionSpec{Name: "p0", Blocks: 4, Mode: sim.ModeNominal})
	f.SetRetryGuard(pol)
	return f
}

// TestDisturbGuardCapsLadderAndMarks: once a block crosses the disturb
// budget, host reads of it run with the capped recovery budget and the
// block is queued for scrub relocation.
func TestDisturbGuardCapsLadderAndMarks(t *testing.T) {
	pol := ScrubPolicy{FractionOfT: 0.7, DisturbRetryBudget: 200, DisturbRetryCap: 1}
	f := guardFTL(t, pol)
	data := pagePattern(5, f.geo.PageDataBytes)
	if _, err := f.Write("p0", 0, data); err != nil {
		t.Fatal(err)
	}
	blk, err := f.BlockOf("p0", 0)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := f.Partition("p0")
	global := p.blocks[blk].id

	// Below the budget: the guard stays out of the way.
	if _, res, err := f.ReadInto("p0", 0, nil); err != nil || res == nil {
		t.Fatalf("unguarded read: %v", err)
	}
	if p.DisturbCapped != 0 || p.PendingScrubs() != 0 {
		t.Fatalf("guard engaged below budget: capped=%d marks=%d", p.DisturbCapped, p.PendingScrubs())
	}

	if err := f.Disturb(220); err != nil {
		t.Fatal(err)
	}
	if reads := blockReads(t, f, global); reads < 220 {
		t.Fatalf("disturb counter %g after saturation", reads)
	}

	// The guard budgets against the counter piggybacked on read results
	// (no control-plane hop per read), so the first read after the raw
	// saturation still runs unguarded and records the climate...
	if _, res, err := f.ReadInto("p0", 0, nil); err != nil || res == nil {
		t.Fatalf("observation read: %v", err)
	}
	if p.DisturbCapped != 0 {
		t.Fatal("guard engaged before a read observed the counter")
	}

	// ...and the next read runs capped.
	got, res, err := f.ReadInto("p0", 0, nil)
	if err != nil {
		t.Fatalf("guarded read lost the page: %v", err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("guarded read corrupted byte %d", i)
		}
	}
	if res.Retries > pol.DisturbRetryCap {
		t.Fatalf("guarded read paid %d retries over cap %d", res.Retries, pol.DisturbRetryCap)
	}
	if res.SoftSenses != 0 {
		t.Fatal("guarded read paid a soft multi-sense walk")
	}
	if p.DisturbCapped != 1 {
		t.Fatalf("DisturbCapped = %d, want 1", p.DisturbCapped)
	}
	marks, err := f.ScrubMarks("p0")
	if err != nil {
		t.Fatal(err)
	}
	if len(marks) != 1 || marks[0] != blk {
		t.Fatalf("guard marked %v, want [%d]", marks, blk)
	}

	// The scrub relocation heals the stress: the block is refreshed and
	// the next read runs unguarded (new block, reads reset by erase once
	// GC reclaims the victim).
	rep, err := f.Scrub("p0")
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRefreshed != 1 || rep.PagesMoved != 1 {
		t.Fatalf("scrub report %+v, want one block, one page", rep)
	}
	newBlk, err := f.BlockOf("p0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if newBlk == blk {
		t.Fatal("scrub left the page on the disturb-saturated block")
	}
	capped := p.DisturbCapped
	if _, _, err := f.ReadInto("p0", 0, nil); err != nil {
		t.Fatal(err)
	}
	if p.DisturbCapped != capped {
		t.Fatal("relocated page still read through the guard")
	}
}

// TestDisturbGuardDisabledByDefault: a zero budget never caps.
func TestDisturbGuardDisabledByDefault(t *testing.T) {
	f := guardFTL(t, ScrubPolicy{FractionOfT: 0.7})
	data := pagePattern(6, f.geo.PageDataBytes)
	if _, err := f.Write("p0", 0, data); err != nil {
		t.Fatal(err)
	}
	p, _ := f.Partition("p0")
	if err := f.Disturb(500); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ReadInto("p0", 0, nil); err != nil {
		t.Fatal(err)
	}
	if p.DisturbCapped != 0 {
		t.Fatal("disabled guard capped a read")
	}
}

// TestDisturbGuardPolicyValidation: negative knobs are rejected by the
// health-check entry point.
func TestDisturbGuardPolicyValidation(t *testing.T) {
	f := guardFTL(t, ScrubPolicy{})
	data := pagePattern(7, f.geo.PageDataBytes)
	if _, err := f.Write("p0", 0, data); err != nil {
		t.Fatal(err)
	}
	_, res, err := f.ReadInto("p0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := ScrubPolicy{FractionOfT: 0.7, DisturbRetryBudget: -1}
	if _, err := f.CheckReadHealth("p0", 0, res, bad); err == nil {
		t.Fatal("negative disturb budget accepted")
	}
	bad = ScrubPolicy{FractionOfT: 0.7, DisturbRetryCap: -2}
	if _, err := f.CheckReadHealth("p0", 0, res, bad); err == nil {
		t.Fatal("negative disturb cap accepted")
	}
}
