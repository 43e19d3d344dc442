package dispatch

import (
	"bytes"
	"context"
	"testing"

	"xlnand/internal/controller"
	"xlnand/internal/ecc"
	"xlnand/internal/nand"
	"xlnand/internal/sim"
)

// tagFor encodes an address into an opaque caller token with a marker
// in the high bits, so a completion that lost or mangled its tag can't
// accidentally collide with a valid one.
func tagFor(die, page int) uint64 {
	return 0xfee1_0000_0000_0000 | uint64(die)<<16 | uint64(page)
}

// TestTagsSurviveRetries drives an aged medium through one Submit batch
// that interleaves two dies and checks every tag comes back exactly
// once, on the completion whose address and payload it was attached to,
// including reads that walked the recovery ladder.
func TestTagsSurviveRetries(t *testing.T) {
	d := newTestDispatcher(t, 2, 2, 424)
	q := d.NewQueue()
	ctx := context.Background()
	geo := d.Geometry()

	// End-of-life retention bake on die 0 only: its reads pay retries,
	// die 1's stay single-shot, and the batch interleaves both.
	if err := d.SetCycles(0, 0, 1e6); err != nil {
		t.Fatal(err)
	}
	const pages = 8
	payload := map[uint64][]byte{}
	for die := 0; die < 2; die++ {
		for p := 0; p < pages; p++ {
			data := testPage(uint64(100+die*pages+p), geo.PageDataBytes)
			payload[tagFor(die, p)] = data
			if _, err := q.Do(ctx, Request{Op: OpWrite, Die: die, Block: 0, Page: p, Data: data}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.AdvanceTime(1e4); err != nil {
		t.Fatal(err)
	}

	var reqs []Request
	for p := 0; p < pages; p++ {
		for die := 0; die < 2; die++ {
			reqs = append(reqs, Request{Op: OpRead, Die: die, Block: 0, Page: p, Tag: tagFor(die, p)})
		}
	}
	comps, err := q.Submit(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	retried := 0
	for _, comp := range comps {
		if comp.Err != nil {
			t.Fatalf("read %d/%d.%d failed: %v", comp.Die, comp.Block, comp.Page, comp.Err)
		}
		want, ok := payload[comp.Tag]
		if !ok {
			t.Fatalf("completion carries unknown tag %#x", comp.Tag)
		}
		if seen[comp.Tag] {
			t.Fatalf("tag %#x delivered twice", comp.Tag)
		}
		seen[comp.Tag] = true
		if got := tagFor(comp.Die, comp.Page); got != comp.Tag {
			t.Fatalf("tag %#x delivered on completion for die %d page %d (expected tag %#x): attribution broke",
				comp.Tag, comp.Die, comp.Page, got)
		}
		if !bytes.Equal(comp.Data, want) {
			t.Fatalf("tag %#x delivered someone else's data", comp.Tag)
		}
		if comp.Retries > 0 {
			retried++
		}
	}
	if len(seen) != len(reqs) {
		t.Fatalf("%d tags delivered, want %d", len(seen), len(reqs))
	}
	if retried == 0 {
		t.Fatal("no read paid a retry; the tags-through-recovery path was not exercised")
	}
}

// TestTagsSurviveSoftRungs repeats the attribution check through the
// deepest recovery path: LDPC soft-decision rungs, where one request
// fans out into many component senses before the completion forms.
func TestTagsSurviveSoftRungs(t *testing.T) {
	steps := nand.DefaultStressConfig().RetrySteps
	ctrlCfg := controller.DefaultConfig()
	ctrlCfg.MaxRetries = steps + 2 // leaves one attempt past the hard ladder
	ctrlCfg.SoftRetries = 1
	d, err := New(Config{
		Dies: 1, BlocksPerDie: 2, Seed: 909,
		Env: sim.DefaultEnv(), Controller: ctrlCfg,
		Family: ecc.FamilyLDPC,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	q := d.NewQueue()
	ctx := context.Background()
	geo := d.Geometry()

	// Deep enough that the hard ladder alone loses pages and the soft
	// rung is what brings them back (the controller soft tests' corner).
	if err := d.SetCycles(0, 0, 2e7); err != nil {
		t.Fatal(err)
	}
	const pages = 8
	payload := map[uint64][]byte{}
	for p := 0; p < pages; p++ {
		data := testPage(uint64(700+p), geo.PageDataBytes)
		payload[tagFor(0, p)] = data
		if _, err := q.Do(ctx, Request{Op: OpWrite, Block: 0, Page: p, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AdvanceTime(1e5); err != nil {
		t.Fatal(err)
	}

	var reqs []Request
	for p := 0; p < pages; p++ {
		reqs = append(reqs, Request{Op: OpRead, Block: 0, Page: p, Tag: tagFor(0, p)})
	}
	comps, err := q.Submit(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	softSaves := 0
	for _, comp := range comps {
		want, ok := payload[comp.Tag]
		if !ok {
			t.Fatalf("completion carries unknown tag %#x", comp.Tag)
		}
		if seen[comp.Tag] {
			t.Fatalf("tag %#x delivered twice", comp.Tag)
		}
		seen[comp.Tag] = true
		if got := tagFor(comp.Die, comp.Page); got != comp.Tag {
			t.Fatalf("tag %#x delivered on completion for page %d: attribution broke", comp.Tag, comp.Page)
		}
		if comp.Err != nil {
			continue // a lost page still owes its (correct) tag; data is moot
		}
		if !bytes.Equal(comp.Data, want) {
			t.Fatalf("tag %#x delivered someone else's data", comp.Tag)
		}
		if comp.SoftSenses > 0 {
			softSaves++
		}
	}
	if len(seen) != len(reqs) {
		t.Fatalf("%d tags delivered, want %d", len(seen), len(reqs))
	}
	if softSaves == 0 {
		t.Fatal("no read went soft; the tags-through-soft-rung path was not exercised")
	}
}
