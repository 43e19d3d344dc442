package dispatch

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"xlnand/internal/controller"
	"xlnand/internal/sim"
	"xlnand/internal/stats"
)

func newTestDispatcher(t testing.TB, dies, blocks int, seed uint64) *Dispatcher {
	t.Helper()
	d, err := New(Config{
		Dies: dies, BlocksPerDie: blocks, Seed: seed,
		Env: sim.DefaultEnv(), Controller: controller.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func testPage(seed uint64, size int) []byte {
	r := stats.NewRNG(seed)
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	return data
}

func TestVClockSerialises(t *testing.T) {
	var v vclock
	s1, e1 := v.acquire(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first acquire [%d, %d]", s1, e1)
	}
	s2, e2 := v.acquire(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("overlapping acquire did not queue: [%d, %d]", s2, e2)
	}
	s3, e3 := v.acquire(100, 5)
	if s3 != 100 || e3 != 105 {
		t.Fatalf("idle-gap acquire shifted: [%d, %d]", s3, e3)
	}
}

func TestSingleReadPipelineStamps(t *testing.T) {
	d := newTestDispatcher(t, 1, 2, 5)
	q := d.NewQueue()
	page := testPage(1, d.Geometry().PageDataBytes)
	ctx := context.Background()
	if _, err := q.Do(ctx, Request{Op: OpWrite, Block: 0, Page: 0, Data: page}); err != nil {
		t.Fatal(err)
	}
	comp, err := q.Do(ctx, Request{Op: OpRead, Block: 0, Page: 0})
	if err != nil {
		t.Fatal(err)
	}
	lat := comp.Read.Latency
	want := lat.TR + lat.Transfer + lat.Decode
	if got := comp.Finish - comp.Start; got != want {
		t.Fatalf("unloaded read pipeline %v, controller total %v", got, want)
	}
}

// TestSharedBusSerialisesAcrossDies: two dies sense in parallel but their
// transfers share the bus, so the two-read makespan must sit strictly
// between one full read and two sequential reads.
func TestSharedBusSerialisesAcrossDies(t *testing.T) {
	d := newTestDispatcher(t, 2, 1, 6)
	q := d.NewQueue()
	page := testPage(2, d.Geometry().PageDataBytes)
	ctx := context.Background()
	if _, err := q.Submit(ctx, []Request{
		{Op: OpWrite, Die: 0, Block: 0, Page: 0, Data: page},
		{Op: OpWrite, Die: 1, Block: 0, Page: 0, Data: page},
	}); err != nil {
		t.Fatal(err)
	}
	base := d.Now()
	comps, err := q.Submit(ctx, []Request{
		{Op: OpRead, Die: 0, Block: 0, Page: 0},
		{Op: OpRead, Die: 1, Block: 0, Page: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	var oneRead, makespan time.Duration
	for _, c := range comps {
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if c.Start != base {
			t.Fatalf("die %d sense did not start at batch arrival: %v vs %v", c.Die, c.Start, base)
		}
		total := c.Read.Latency.TR + c.Read.Latency.Transfer + c.Read.Latency.Decode
		if total > oneRead {
			oneRead = total
		}
		if c.Finish-base > makespan {
			makespan = c.Finish - base
		}
	}
	if makespan <= oneRead {
		t.Fatalf("two reads as fast as one (%v <= %v): bus not serialising", makespan, oneRead)
	}
	if makespan >= 2*oneRead {
		t.Fatalf("two-die reads fully sequential (%v >= 2x%v): dies not interleaving", makespan, oneRead)
	}
}

func TestBadAddressTyped(t *testing.T) {
	d := newTestDispatcher(t, 2, 2, 7)
	q := d.NewQueue()
	ctx := context.Background()
	for _, req := range []Request{
		{Op: OpRead, Die: 2, Block: 0, Page: 0},
		{Op: OpRead, Die: 0, Block: 9, Page: 0},
		{Op: OpRead, Die: 0, Block: 0, Page: 99},
		{Op: OpErase, Die: -1, Block: 0},
	} {
		_, err := q.Do(ctx, req)
		if !errors.Is(err, ErrBadAddress) {
			t.Fatalf("%+v: want ErrBadAddress, got %v", req, err)
		}
		var oe *OpError
		if !errors.As(err, &oe) {
			t.Fatalf("%+v: error %v is not an *OpError", req, err)
		}
	}
	// Erase ignores the page field.
	if _, err := q.Do(ctx, Request{Op: OpErase, Die: 0, Block: 0, Page: 1 << 20}); err != nil {
		t.Fatalf("erase rejected its ignored page field: %v", err)
	}
}

func TestCloseSemantics(t *testing.T) {
	d := newTestDispatcher(t, 2, 2, 8)
	q := d.NewQueue()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	if _, err := q.Submit(context.Background(), []Request{{Op: OpRead}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: want ErrClosed, got %v", err)
	}
	if _, err := d.Cycles(0, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("control op after Close: want ErrClosed, got %v", err)
	}
}

func TestEraseAdvancesWear(t *testing.T) {
	d := newTestDispatcher(t, 1, 1, 9)
	q := d.NewQueue()
	ctx := context.Background()
	comp, err := q.Do(ctx, Request{Op: OpErase, Block: 0})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Finish <= comp.Start {
		t.Fatal("erase took no modelled time")
	}
	c, err := d.Cycles(0, 0)
	if err != nil || c != 1 {
		t.Fatalf("wear after erase: %v, %v", c, err)
	}
}

func TestControlOpsRouteThroughWorker(t *testing.T) {
	d := newTestDispatcher(t, 2, 2, 10)
	if err := d.SetCycles(1, 1, 5e4); err != nil {
		t.Fatal(err)
	}
	c, err := d.Cycles(1, 1)
	if err != nil || c != 5e4 {
		t.Fatalf("cycles round trip: %v, %v", c, err)
	}
	if err := d.AdvanceTime(100); err != nil {
		t.Fatal(err)
	}
	for die := 0; die < 2; die++ {
		if n := d.Controller(die).Manager().Uncorrectables(); n != 0 {
			t.Fatalf("die %d: %d phantom uncorrectables", die, n)
		}
	}
}

// TestAdvanceTimeRejectsNonFiniteHours: a NaN or infinite bake is an
// error; zero and negative hours stay the device's no-op.
func TestAdvanceTimeRejectsNonFiniteHours(t *testing.T) {
	d := newTestDispatcher(t, 2, 1, 3)
	for _, h := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if err := d.AdvanceTime(h); err == nil {
			t.Fatalf("AdvanceTime(%g) accepted", h)
		}
	}
	for _, h := range []float64{0, -1} {
		if err := d.AdvanceTime(h); err != nil {
			t.Fatalf("AdvanceTime(%g): %v", h, err)
		}
	}
}

// TestMultiDieBatchStampsReproducible: a batch spanning four dies books
// the shared bus and codec in request order, so fresh dispatchers on one
// seed stamp a mixed batch identically, run after run.
func TestMultiDieBatchStampsReproducible(t *testing.T) {
	const dies = 4
	stamps := func() []time.Duration {
		d := newTestDispatcher(t, dies, 2, 31)
		q := d.NewQueue()
		page := testPage(4, d.Geometry().PageDataBytes)
		var writes, mixed []Request
		for p := 0; p < 4; p++ {
			for die := 0; die < dies; die++ {
				writes = append(writes, Request{Op: OpWrite, Die: die, Block: 0, Page: p, Data: page})
				mixed = append(mixed,
					Request{Op: OpRead, Die: die, Block: 0, Page: p},
					Request{Op: OpWrite, Die: die, Block: 1, Page: p, Data: page})
			}
		}
		var out []time.Duration
		for _, batch := range [][]Request{writes, mixed} {
			comps, err := q.Submit(context.Background(), batch)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range comps {
				if c.Err != nil {
					t.Fatal(c.Err)
				}
				out = append(out, c.Start, c.Finish)
			}
		}
		return out
	}
	want := stamps()
	for run := 1; run < 10; run++ {
		if got := stamps(); !slices.Equal(got, want) {
			t.Fatalf("run %d stamped the batch differently:\n got %v\nwant %v", run, got, want)
		}
	}
}

func TestPerDieSeedsDecorrelated(t *testing.T) {
	d := newTestDispatcher(t, 2, 1, 11)
	q := d.NewQueue()
	ctx := context.Background()
	page := testPage(3, d.Geometry().PageDataBytes)
	// Age both dies to a wear where reads see many raw errors, then
	// compare the injected error patterns.
	for die := 0; die < 2; die++ {
		if err := d.SetCycles(die, 0, 1e5); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Do(ctx, Request{Op: OpWrite, Die: die, Block: 0, Page: 0, Data: page}); err != nil {
			t.Fatal(err)
		}
	}
	c0, err := q.Do(ctx, Request{Op: OpRead, Die: 0, Block: 0, Page: 0})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := q.Do(ctx, Request{Op: OpRead, Die: 1, Block: 0, Page: 0})
	if err != nil {
		t.Fatal(err)
	}
	if c0.Corrected == 0 && c1.Corrected == 0 {
		t.Skip("no raw errors at this wear/seed; cannot compare streams")
	}
	if c0.Corrected == c1.Corrected {
		t.Logf("note: dies corrected identical counts (%d); acceptable but unexpected", c0.Corrected)
	}
}

// TestRetryChargesTimeline pins the dispatcher's honesty about the
// recovery ladder: a read that walked N retry stages must occupy the
// modelled timeline for the sum of its per-stage costs (each re-sense
// pays tR on the die, transfer on the bus and decode on the codec), so
// aged-device throughput degrades exactly as the controller reports.
func TestRetryChargesTimeline(t *testing.T) {
	d := newTestDispatcher(t, 1, 2, 77)
	q := d.NewQueue()
	ctx := context.Background()
	page := testPage(9, d.Geometry().PageDataBytes)

	// A retention-baked end-of-life page: uncorrectable single-shot,
	// recovered within the ladder.
	if err := d.SetCycles(0, 0, 1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Do(ctx, Request{Op: OpWrite, Block: 0, Page: 0, Data: page}); err != nil {
		t.Fatal(err)
	}
	if err := d.AdvanceTime(1e4); err != nil {
		t.Fatal(err)
	}

	zero := 0
	comp0, err := q.Do(ctx, Request{Op: OpRead, Block: 0, Page: 0, Retries: &zero})
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("baked EOL page decoded single-shot (%v); corner not exercised", err)
	}
	if comp0.Retries != 0 {
		t.Fatalf("zero-budget read reported %d retries", comp0.Retries)
	}

	comp, err := q.Do(ctx, Request{Op: OpRead, Block: 0, Page: 0})
	if err != nil {
		t.Fatalf("ladder did not recover the page: %v", err)
	}
	if comp.Retries == 0 {
		t.Fatal("recovered read reports zero retries")
	}
	if got := len(comp.Read.Stages); got != comp.Retries+1 {
		t.Fatalf("%d stages for %d retries", got, comp.Retries)
	}
	// The completion's span covers every stage: at least the summed
	// stage costs (queueing can only stretch it).
	if span := comp.Finish - comp.Start; span < comp.Read.Latency.Total() {
		t.Fatalf("timeline span %v below the %d-stage cost %v",
			span, comp.Retries+1, comp.Read.Latency.Total())
	}
	wantTR := time.Duration(comp.Retries+1) * 75 * time.Microsecond
	if comp.Read.Latency.TR != wantTR {
		t.Fatalf("ladder tR %v, want %v", comp.Read.Latency.TR, wantTR)
	}

	// And the single-attempt baseline on the same medium is strictly
	// cheaper than the recovered read's booked span.
	comp2, err := q.Do(ctx, Request{Op: OpRead, Block: 0, Page: 0})
	if err != nil {
		t.Fatal(err)
	}
	if comp2.Retries != 0 {
		// The calibration cache should have learned the offset; if not,
		// the comparison below would be meaningless.
		t.Fatalf("post-recovery read still paid %d retries", comp2.Retries)
	}
	if comp2.Latency() >= comp.Latency() {
		t.Fatalf("calibrated single-sense read (%v) not cheaper than the %d-stage walk (%v)",
			comp2.Latency(), comp.Retries+1, comp.Latency())
	}
}

// TestRequestParityCopyBack: a read with Request.Parity hands back the
// page's parity (Completion.ParityBytes of it) and a write given that
// parity programs it; against a twin dispatcher that encodes, every
// completion — level, parity length, results, modelled stamps — and
// every page read back are the same.
func TestRequestParityCopyBack(t *testing.T) {
	ctx := context.Background()
	run := func(copyBack bool) []Completion {
		d := newTestDispatcher(t, 1, 2, 61)
		q := d.NewQueue()
		data := testPage(61, d.Geometry().PageDataBytes)
		var parity []byte
		if copyBack {
			parity = make([]byte, 256)
		}
		var comps []Completion
		do := func(req Request) Completion {
			c, err := q.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			comps = append(comps, c)
			return c
		}
		do(Request{Op: OpWrite, Page: 0, Data: data})
		rd := do(Request{Op: OpRead, Page: 0, Parity: parity})
		if copyBack {
			want := make([]byte, rd.ParityBytes)
			if err := d.Codec().EncodeInto(rd.T, want, data); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(parity[:rd.ParityBytes], want) {
				t.Fatal("the read's parity is not EncodeInto's")
			}
			parity = parity[:rd.ParityBytes]
		}
		do(Request{Op: OpWrite, Page: 1, Data: rd.Data, Parity: parity})
		do(Request{Op: OpRead, Page: 1})
		return comps
	}
	enc, cb := run(false), run(true)
	for i := range enc {
		a, b := enc[i], cb[i]
		same := a.T == b.T && a.ParityBytes == b.ParityBytes && a.Start == b.Start &&
			a.Finish == b.Finish && bytes.Equal(a.Data, b.Data)
		switch {
		case a.Write != nil:
			same = same && reflect.DeepEqual(*a.Write, *b.Write)
		case a.Read != nil:
			same = same && a.Read.Corrected == b.Read.Corrected && a.Read.Latency == b.Read.Latency
		}
		if !same || a.ParityBytes == 0 {
			t.Fatalf("completion %d: encoding %+v, copy-back %+v", i, a, b)
		}
	}
}
