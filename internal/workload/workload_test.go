package workload

import (
	"context"
	"testing"

	"xlnand/internal/controller"
	"xlnand/internal/dispatch"
	"xlnand/internal/sim"
)

// newDispatcher builds a one-die, four-block stack.
func newDispatcher(t *testing.T) *dispatch.Dispatcher {
	t.Helper()
	d, err := dispatch.New(dispatch.Config{
		Dies: 1, BlocksPerDie: 4, Seed: 99,
		Env: sim.DefaultEnv(), Controller: controller.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Profile{}, 1); err == nil {
		t.Fatal("empty profile accepted")
	}
	if _, err := Generate(Profile{ReadFraction: 2, Ops: 10, Blocks: 1, PagesPerBlock: 4}, 1); err == nil {
		t.Fatal("read fraction 2 accepted")
	}
}

func TestGenerateShape(t *testing.T) {
	tr, err := Generate(ReadIntensive(500, 4, 64), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) < 500 {
		t.Fatalf("trace has %d requests, want >= 500", len(tr.Requests))
	}
	reads, writes := 0, 0
	for _, r := range tr.Requests {
		switch r.Kind {
		case OpRead:
			reads++
		case OpWrite:
			writes++
		}
	}
	if reads < writes*5 {
		t.Fatalf("read-intensive trace has %d reads vs %d writes", reads, writes)
	}
}

func TestGenerateReadsOnlyWrittenPages(t *testing.T) {
	tr, err := Generate(Mixed(800, 2, 8), 11)
	if err != nil {
		t.Fatal(err)
	}
	written := map[[2]int]bool{}
	for _, r := range tr.Requests {
		key := [2]int{r.Block, r.Page}
		switch r.Kind {
		case OpWrite:
			if written[key] {
				t.Fatalf("double write without erase at %v", key)
			}
			written[key] = true
		case OpRead:
			if !written[key] {
				t.Fatalf("read of never-written page %v", key)
			}
		case OpErase:
			for k := range written {
				if k[0] == r.Block {
					delete(written, k)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(Mixed(300, 2, 8), 5)
	b, _ := Generate(Mixed(300, 2, 8), 5)
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("same seed, different trace length")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
	}
}

func TestReplayReadIntensiveTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("trace replay skipped in -short mode")
	}
	tr, err := Generate(ReadIntensive(120, 2, 64), 13)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Replay(newDispatcher(t).NewQueue(), tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("replay did nothing: %+v", st)
	}
	if st.Uncorrectable != 0 {
		t.Fatalf("%d uncorrectable pages on a fresh device", st.Uncorrectable)
	}
	if st.ReadTime <= 0 || st.WriteTime <= 0 || st.Last <= st.First {
		t.Fatalf("replay took no modelled time: %+v", st)
	}
}

func TestReplayWrapsWithErase(t *testing.T) {
	if testing.Short() {
		t.Skip("trace replay skipped in -short mode")
	}
	// Tiny address space forces wrap-around erases: 2 blocks × 64 pages
	// = 128 pages; 200 writes must trigger at least one erase.
	p := WriteIntensive(260, 2, 64)
	tr, err := Generate(p, 17)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Replay(newDispatcher(t).NewQueue(), tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Erases == 0 {
		t.Fatal("wrap-around produced no erases")
	}
}

func TestReplayRejectsEmptyBatch(t *testing.T) {
	tr, err := Generate(Mixed(10, 1, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{0, -1} {
		if _, err := Replay(newDispatcher(t).NewQueue(), tr, batch); err == nil {
			t.Errorf("batch %d accepted", batch)
		}
	}
}

// TestIdleQueueAddsNoQueueing: on one die, a request submitted alone
// finds the die, bus and codec idle, so a read's completion latency is
// exactly its controller-reported service time, every retry included.
// Figure ext-validate rests on this: it measures read throughput from
// Replay(q, tr, 1) latencies.
func TestIdleQueueAddsNoQueueing(t *testing.T) {
	d := newDispatcher(t)
	for b := 0; b < 4; b++ {
		if err := d.SetCycles(0, b, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	q := d.NewQueue()
	tr, err := Generate(ReadIntensive(200, 4, d.Geometry().PagesPerBlock), 21)
	if err != nil {
		t.Fatal(err)
	}
	var writes, reads Trace
	for _, r := range tr.Requests {
		if r.Kind == OpRead {
			reads.Requests = append(reads.Requests, r)
		} else {
			writes.Requests = append(writes.Requests, r)
		}
	}
	if _, err := Replay(q, writes, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.AdvanceTime(1e5); err != nil {
		t.Fatal(err)
	}
	retried := 0
	for i, r := range reads.Requests {
		comps, err := q.Submit(context.Background(), []dispatch.Request{
			{Op: dispatch.OpRead, Block: r.Block, Page: r.Page},
		})
		if err != nil {
			t.Fatal(err)
		}
		c := comps[0]
		if c.Read == nil {
			t.Fatalf("read %d failed outright: %v", i, c.Err)
		}
		if got, want := c.Latency(), c.Read.Latency.Total(); got != want {
			t.Fatalf("read %d (%d retries): completion latency %v, service time %v", i, c.Retries, got, want)
		}
		if c.Retries > 0 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no read retried; the recovery ladder was not exercised")
	}
	t.Logf("%d of %d reads retried", retried, len(reads.Requests))
}

func TestOpKindString(t *testing.T) {
	if OpWrite.String() != "write" || OpRead.String() != "read" ||
		OpErase.String() != "erase" || OpKind(7).String() != "op?" {
		t.Fatal("op names drifted")
	}
}
