package dispatch

import (
	"context"
	"testing"

	"xlnand/internal/controller"
)

// TestDispatchZeroAlloc pins the dispatcher's synchronous calls at zero
// steady-state allocations: every call runs on its caller with its job
// on the stack, so a read into a caller buffer, a write into a block
// whose page stores an erase parked on the device's free lists, an
// erase and the wear controls cost nothing of their own.
func TestDispatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	d := newTestDispatcher(t, 1, 2, 21)
	// A pinned capability keeps every write's spare the same length, so a
	// parked spare store always fits the next one.
	d.PinCapability(8)
	q := d.NewQueue()
	ctx := context.Background()
	page := testPage(5, d.Geometry().PageDataBytes)
	dst := make([]byte, len(page))
	var rres controller.ReadResult
	var wres controller.WriteResult
	// AllocsPerRun adds one warm-up call, so each measurement makes
	// runs+1 calls; the writes fit in the stores one erase parks.
	const runs = 10

	// Warm-up: fill runs+1 pages of both blocks, read one back, and
	// erase block 1 so its stores wait on the free lists.
	for p := 0; p <= runs; p++ {
		for b := 0; b < 2; b++ {
			if _, err := q.DoWrite(ctx, Request{Op: OpWrite, Block: b, Page: p, Data: page}, &wres); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func() {
		if _, err := q.DoRead(ctx, Request{Op: OpRead, Block: 0, Page: 0}, dst, &rres); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if _, err := q.Do(ctx, Request{Op: OpErase, Block: 1}); err != nil {
		t.Fatal(err)
	}

	next := 0
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"DoRead", read},
		{"DoWrite", func() {
			if _, err := q.DoWrite(ctx, Request{Op: OpWrite, Block: 1, Page: next, Data: page}, &wres); err != nil {
				t.Fatal(err)
			}
			next++
		}},
		{"Cycles", func() {
			if _, err := d.Cycles(0, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetCycles", func() {
			if err := d.SetCycles(0, 0, 10); err != nil {
				t.Fatal(err)
			}
		}},
		// Last: it empties block 0, which the read measures.
		{"Do(OpErase)", func() {
			if _, err := q.Do(ctx, Request{Op: OpErase, Block: 0}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if avg := testing.AllocsPerRun(runs, tc.fn); avg != 0 {
			t.Errorf("%s allocates %.2f/call, want 0", tc.name, avg)
		}
	}
}
