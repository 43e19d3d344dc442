package workload

import (
	"testing"

	"xlnand/internal/bch"
	"xlnand/internal/controller"
	"xlnand/internal/nand"
)

func newController(t *testing.T) *controller.Controller {
	t.Helper()
	dev := nand.NewDevice(nand.DefaultCalibration(), 4, 99)
	codec, err := bch.NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	c, err := controller.New(dev, codec, controller.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
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

func TestRunReadIntensiveTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("trace replay skipped in -short mode")
	}
	c := newController(t)
	tr, err := Generate(ReadIntensive(120, 2, 64), 13)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("replay did nothing: %+v", st)
	}
	if st.Uncorrectable != 0 {
		t.Fatalf("%d uncorrectable pages on a fresh device", st.Uncorrectable)
	}
	if st.ReadMBps <= 0 || st.WriteMBps <= 0 {
		t.Fatal("throughputs not computed")
	}
}

func TestRunWrapsWithErase(t *testing.T) {
	if testing.Short() {
		t.Skip("trace replay skipped in -short mode")
	}
	c := newController(t)
	// Tiny address space forces wrap-around erases: 2 blocks × 64 pages
	// = 128 pages; 200 writes must trigger at least one erase.
	p := WriteIntensive(260, 2, 64)
	tr, err := Generate(p, 17)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Erases == 0 {
		t.Fatal("wrap-around produced no erases")
	}
}

func TestOpKindString(t *testing.T) {
	if OpWrite.String() != "write" || OpRead.String() != "read" ||
		OpErase.String() != "erase" || OpKind(7).String() != "op?" {
		t.Fatal("op names drifted")
	}
}
