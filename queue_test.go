package xlnand

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fastFabric opens a sub-system whose shared stages (DDR-class bus,
// widened codec) are fast enough that die interleaving, not transfer or
// decode, dominates read scaling — the configuration the multi-die
// benchmarks and the ScaleDies cross-checks use.
func fastFabric(dies int) []Option {
	return []Option{
		WithDies(dies),
		WithBlocks(2),
		WithSeed(11),
		WithBus(BusConfig{WidthBits: 16, ClockHz: 100e6}),
		WithCodecHW(32, 64, 200e6),
	}
}

func openQueued(t testing.TB, opts ...Option) (*Subsystem, *Queue) {
	t.Helper()
	sys, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys, sys.NewQueue()
}

// TestQueueMixedBatchAcrossDies is the acceptance scenario: one
// 64-request mixed read/write batch spanning 4 dies, every completion
// verified (run under go test -race in CI).
func TestQueueMixedBatchAcrossDies(t *testing.T) {
	sys, q := openQueued(t, WithDies(4), WithBlocks(2), WithSeed(3))
	ctx := context.Background()
	page := pageOf(10, sys.PageSize())

	// Seed 32 pages (8 per die) so the mixed batch has data to read.
	var setup []Request
	for die := 0; die < 4; die++ {
		for p := 0; p < 8; p++ {
			setup = append(setup, WriteRequest(die, 0, p, page))
		}
	}
	comps, err := q.Submit(ctx, setup)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range comps {
		if c.Err != nil {
			t.Fatal(c.Err)
		}
	}

	// The 64-request mixed batch: 32 reads of the seeded pages
	// interleaved with 32 writes of fresh pages, all four dies involved.
	var batch []Request
	for die := 0; die < 4; die++ {
		for p := 0; p < 8; p++ {
			batch = append(batch, ReadRequest(die, 0, p))
			batch = append(batch, WriteRequest(die, 0, 8+p, page))
		}
	}
	if len(batch) != 64 {
		t.Fatalf("batch has %d requests", len(batch))
	}
	comps, err = q.Submit(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 64 {
		t.Fatalf("%d completions", len(comps))
	}
	reads, writes := 0, 0
	for i, c := range comps {
		if c.Err != nil {
			t.Fatalf("request %d: %v", i, c.Err)
		}
		if c.Op != batch[i].Op || c.Die != batch[i].Die || c.Page != batch[i].Page {
			t.Fatalf("completion %d does not echo its request: %+v vs %+v", i, c, batch[i])
		}
		switch c.Op {
		case OpRead:
			reads++
			if !bytes.Equal(c.Data, page) {
				t.Fatalf("read %d corrupted", i)
			}
		case OpWrite:
			writes++
		}
		if c.Finish <= c.Start {
			t.Fatalf("completion %d has empty modelled interval", i)
		}
	}
	if reads != 32 || writes != 32 {
		t.Fatalf("mix lost requests: %d reads, %d writes", reads, writes)
	}
}

// TestQueueConcurrentSubmit hammers one sub-system from many goroutines
// (distinct pages per goroutine) — the data-race acceptance gate.
func TestQueueConcurrentSubmit(t *testing.T) {
	sys, _ := openQueued(t, WithDies(4), WithBlocks(2), WithSeed(5))
	ctx := context.Background()
	page := pageOf(20, sys.PageSize())

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := sys.NewQueue() // one queue per goroutine, same dispatcher
			// Goroutine w owns pages [(w/4)*8, (w/4)*8+8) of (die w%4,
			// block 0), so writes never collide.
			die := w % 4
			var batch []Request
			for p := 0; p < 8; p++ {
				batch = append(batch, WriteRequest(die, 0, (w/4)*8+p, page))
			}
			comps, err := q.Submit(ctx, batch)
			if err != nil {
				errs <- err
				return
			}
			for _, c := range comps {
				if c.Err != nil {
					errs <- c.Err
					return
				}
			}
			// Read everything back concurrently with other goroutines.
			var reads []Request
			for p := 0; p < 8; p++ {
				reads = append(reads, ReadRequest(die, 0, (w/4)*8+p))
			}
			comps, err = q.Submit(ctx, reads)
			if err != nil {
				errs <- err
				return
			}
			for _, c := range comps {
				if c.Err != nil {
					errs <- c.Err
					return
				}
				if !bytes.Equal(c.Data, page) {
					errs <- errors.New("concurrent read corrupted data")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestQueueContextCancellation covers both cancellation shapes: a
// pre-cancelled batch (every request skipped, typed error) and a cancel
// landing mid-batch (no lost completions either way).
func TestQueueContextCancellation(t *testing.T) {
	sys, q := openQueued(t, WithDies(1), WithBlocks(2), WithSeed(7))
	page := pageOf(30, sys.PageSize())

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	batch := []Request{
		WriteRequest(0, 0, 0, page),
		WriteRequest(0, 0, 1, page),
	}
	comps, err := q.Submit(cancelled, batch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Submit returned %v", err)
	}
	if len(comps) != len(batch) {
		t.Fatalf("%d completions for %d requests", len(comps), len(batch))
	}
	for i, c := range comps {
		if !errors.Is(c.Err, context.Canceled) {
			t.Fatalf("completion %d: want context.Canceled, got %v", i, c.Err)
		}
		var oe *OpError
		if !errors.As(c.Err, &oe) {
			t.Fatalf("completion %d error is not typed: %v", i, c.Err)
		}
	}

	// Mid-batch: the batch checks the context once per request, and this
	// one cancels itself on the second check, so request 1 executes and
	// the other 31 are skipped with the context error. Every request must
	// still complete, and the batch error must be the cancellation.
	inner, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	ctx := &cancelOnSecondCheck{Context: inner, cancel: cancel2}
	var big []Request
	for p := 0; p < 32; p++ {
		big = append(big, WriteRequest(0, 1, p, page))
	}
	comps, err = q.Submit(ctx, big)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-batch Submit returned %v", err)
	}
	got, skipped, executed := 0, 0, 0
	for _, c := range comps {
		got++
		switch {
		case c.Err == nil:
			executed++
		case errors.Is(c.Err, context.Canceled):
			skipped++
		default:
			t.Fatalf("unexpected completion error: %v", c.Err)
		}
	}
	if got != len(big) {
		t.Fatalf("lost completions: %d of %d", got, len(big))
	}
	if executed != 1 || skipped != len(big)-1 {
		t.Fatalf("executed %d, skipped %d; want 1 and %d", executed, skipped, len(big)-1)
	}
}

// cancelOnSecondCheck lets its first Err check through and cancels the
// wrapped context on the second.
type cancelOnSecondCheck struct {
	context.Context
	cancel context.CancelFunc
	checks int
}

func (c *cancelOnSecondCheck) Err() error {
	if c.checks++; c.checks == 2 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestQueuePerRequestModeOverride: one batch carries nominal, max-read
// and min-UBER writes; each resolves its own algorithm/capability with
// no global mode toggling, and the sub-system default is untouched.
func TestQueuePerRequestModeOverride(t *testing.T) {
	sys, q := openQueued(t, WithDies(1), WithBlocks(3), WithSeed(9))
	ctx := context.Background()
	page := pageOf(40, sys.PageSize())
	for b := 0; b < 3; b++ {
		if err := sys.AgeBlock(0, b, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	batch := []Request{
		WriteRequest(0, 0, 0, page), // subsystem default: nominal
		func() Request {
			r := WriteRequest(0, 1, 0, page)
			r.Mode = ModeMaxRead.Ptr()
			return r
		}(),
		func() Request {
			r := WriteRequest(0, 2, 0, page)
			r.Mode = ModeMinUBER.Ptr()
			return r
		}(),
	}
	comps, err := q.Submit(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	nom, fast, crit := comps[0], comps[1], comps[2]
	if nom.Err != nil || fast.Err != nil || crit.Err != nil {
		t.Fatalf("batch errors: %v / %v / %v", nom.Err, fast.Err, crit.Err)
	}
	if nom.Alg != ISPPSV {
		t.Fatalf("default write algorithm %v", nom.Alg)
	}
	if fast.Alg != ISPPDV || crit.Alg != ISPPDV {
		t.Fatalf("override writes did not switch the physical layer: %v / %v", fast.Alg, crit.Alg)
	}
	if fast.T >= nom.T {
		t.Fatalf("max-read t=%d not relaxed vs nominal t=%d", fast.T, nom.T)
	}
	if crit.T != nom.T {
		t.Fatalf("min-UBER t=%d deviates from the SV schedule t=%d", crit.T, nom.T)
	}
	if sys.Mode() != ModeNominal {
		t.Fatalf("per-request overrides leaked into the default mode: %v", sys.Mode())
	}
	// Explicit capability pinning per request.
	r := WriteRequest(0, 0, 1, page)
	r.T = 20
	comp, err := q.Do(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if comp.T != 20 {
		t.Fatalf("per-request T=20 resolved to %d", comp.T)
	}
}

// TestManualCapabilitySurvivesSelectMode: neither SelectMode nor a
// min-UBER write re-enables the reliability manager after SetCapability
// pinned t, and SetAdaptive(false) on a fresh sub-system pins the worst
// case.
func TestManualCapabilitySurvivesSelectMode(t *testing.T) {
	sys, _ := openQueued(t, WithBlocks(2), WithSeed(13))
	page := pageOf(50, sys.PageSize())
	sys.SetCapability(7)
	if err := sys.SelectMode(ModeMaxRead); err != nil {
		t.Fatal(err)
	}
	wr, err := writePage(sys, 0, 0, page)
	if err != nil {
		t.Fatal(err)
	}
	if wr.T != 7 {
		t.Fatalf("pinned t=7 clobbered by SelectMode: wrote at t=%d", wr.T)
	}
	// The min-UBER write path must not clobber the pin either.
	if err := sys.SelectMode(ModeMinUBER); err != nil {
		t.Fatal(err)
	}
	wr, err = writePage(sys, 0, 1, page)
	if err != nil {
		t.Fatal(err)
	}
	if wr.T != 7 {
		t.Fatalf("pinned t=7 clobbered by min-UBER write path: t=%d", wr.T)
	}
	// SetAdaptive(true) is the explicit release.
	sys.SetAdaptive(true)
	if err := sys.SelectMode(ModeNominal); err != nil {
		t.Fatal(err)
	}
	wr, err = writePage(sys, 0, 2, page)
	if err != nil {
		t.Fatal(err)
	}
	if wr.T == 7 {
		t.Fatal("SetAdaptive(true) did not release the pin")
	}
	// SetAdaptive(false) freezes at an existing pin rather than
	// clobbering it with the worst case.
	sys.SetCapability(9)
	sys.SetAdaptive(false)
	wr, err = writePage(sys, 0, 3, page)
	if err != nil {
		t.Fatal(err)
	}
	if wr.T != 9 {
		t.Fatalf("SetAdaptive(false) clobbered the pinned t=9: wrote at t=%d", wr.T)
	}
	fresh, _ := openQueued(t, WithBlocks(1), WithSeed(13))
	fresh.SetAdaptive(false)
	wr, err = writePage(fresh, 0, 0, page)
	if err != nil {
		t.Fatal(err)
	}
	if wr.T != 65 {
		t.Fatalf("SetAdaptive(false) on a fresh sub-system wrote at t=%d, want the worst case 65", wr.T)
	}
}

// readBatchMBps writes `pages` pages striped over the dies, reads them
// back in one batch and returns the modelled throughput over the batch
// makespan.
func readBatchMBps(t testing.TB, sys *Subsystem, q *Queue, pages int) float64 {
	t.Helper()
	ctx := context.Background()
	dies := sys.Dies()
	page := pageOf(60, sys.PageSize())
	var writes, reads []Request
	for i := 0; i < pages; i++ {
		die := i % dies
		p := i / dies
		writes = append(writes, WriteRequest(die, 0, p, page))
		reads = append(reads, ReadRequest(die, 0, p))
	}
	comps, err := q.Submit(ctx, writes)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range comps {
		if c.Err != nil {
			t.Fatal(c.Err)
		}
	}
	comps, err = q.Submit(ctx, reads)
	if err != nil {
		t.Fatal(err)
	}
	var start, finish time.Duration
	for i, c := range comps {
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if i == 0 || c.Start < start {
			start = c.Start
		}
		if c.Finish > finish {
			finish = c.Finish
		}
	}
	return float64(pages*sys.PageSize()) / (finish - start).Seconds() / 1e6
}

// TestQueueDieScalingMatchesModel is the acceptance criterion: measured
// 4-die batch read throughput exceeds 1-die by >= 2x, and both agree
// with the ScaleDies analytic pipeline.
func TestQueueDieScalingMatchesModel(t *testing.T) {
	measured := map[int]float64{}
	predicted := map[int]float64{}
	for _, dies := range []int{1, 4} {
		sys, q := openQueued(t, fastFabric(dies)...)
		measured[dies] = readBatchMBps(t, sys, q, 64)
		ds, err := sys.ScaleDies(ModeNominal, 0, dies)
		if err != nil {
			t.Fatal(err)
		}
		predicted[dies] = ds.ReadMBps
	}
	t.Logf("read MB/s: 1 die %.1f (model %.1f), 4 dies %.1f (model %.1f)",
		measured[1], predicted[1], measured[4], predicted[4])
	if ratio := measured[4] / measured[1]; ratio < 2 {
		t.Fatalf("4-die batch read throughput only %.2fx the 1-die figure", ratio)
	}
	for _, dies := range []int{1, 4} {
		rel := measured[dies] / predicted[dies]
		if rel < 0.7 || rel > 1.3 {
			t.Fatalf("%d-die measured %.1f MB/s vs ScaleDies %.1f MB/s (x%.2f): model diverged",
				dies, measured[dies], predicted[dies], rel)
		}
	}
}

func TestSubsystemCloseTyped(t *testing.T) {
	sys, q := openQueued(t, WithBlocks(1))
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(context.Background(), []Request{ReadRequest(0, 0, 0)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := writePage(sys, 0, 0, make([]byte, sys.PageSize())); !errors.Is(err, ErrClosed) {
		t.Fatalf("single write after Close: want ErrClosed, got %v", err)
	}
}
