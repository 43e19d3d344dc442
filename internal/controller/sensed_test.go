package controller

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"xlnand/internal/bch"
	"xlnand/internal/ecc"
	"xlnand/internal/nand"
)

// countSensed forwards to a codec and counts the DecodeSensed calls and
// failures it serves.
type countSensed struct {
	ecc.Codec
	calls, failed int
}

func (c *countSensed) DecodeSensed(level int, codeword []byte, flips []int) (int, error) {
	c.calls++
	n, err := c.Codec.DecodeSensed(level, codeword, flips)
	if err != nil {
		c.failed++
	}
	return n, err
}

// fullDecode forwards to a codec but answers DecodeSensed with the full
// Decode, ignoring the flip positions.
type fullDecode struct{ ecc.Codec }

func (f fullDecode) DecodeSensed(level int, codeword []byte, _ []int) (int, error) {
	return f.Decode(level, codeword)
}

// managerSnapshot is the reliability manager's whole mutable state.
type managerSnapshot struct {
	memo                        [2]levelMemo
	ewmaRBER, ewmaWeight        [2]float64
	uncorrectable, recovered    int
	softAttempts, softRecovered int
	predictedStep               [retryWearBuckets]int
	retryHist                   [RetryHistBuckets]int
}

func snapshotManager(m *ReliabilityManager) managerSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return managerSnapshot{
		memo: m.memo, ewmaRBER: m.ewmaRBER, ewmaWeight: m.ewmaWeight,
		uncorrectable: m.uncorrectable, recovered: m.recovered,
		softAttempts: m.softAttempts, softRecovered: m.softRecovered,
		predictedStep: m.predictedStep, retryHist: m.retryHist,
	}
}

// TestSensedDecodeMatchesFullDecode proves the sensed-syndrome read path
// equivalent to the full decode at the controller level: two
// identically seeded device + controller pairs run the same writes, EOL
// aging, bake and reads — clean, corrected, retried and uncorrectable,
// plus a page the controller did not program — one through the BCH
// codec's DecodeSensed and one through the same codec wrapped so that
// DecodeSensed ignores the flips and runs the full Decode. Every write
// and read result, the returned bytes, CleanHits and the manager's
// state must match after every operation.
func TestSensedDecodeMatchesFullDecode(t *testing.T) {
	cal := nand.DefaultCalibration()
	rig := func(sensed bool) (*Controller, *countSensed) {
		dev := nand.NewDevice(cal, 6, 4242)
		codec, err := bch.NewCodec(16, cal.PageDataBits(), 3, 65, bch.DefaultHWConfig())
		if err != nil {
			t.Fatal(err)
		}
		var cc ecc.Codec = fullDecode{codec}
		var counter *countSensed
		if sensed {
			counter = &countSensed{Codec: codec}
			cc = counter
		}
		cfg := DefaultConfig()
		cfg.MaxRetries = 6
		c, err := New(dev, cc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c, counter
	}
	fast, counter := rig(true)
	slow, _ := rig(false)

	pageBytes := cal.PageDataBytes
	same := func(what string, fr, sr any, ferr, serr error) {
		t.Helper()
		if fmt.Sprint(ferr) != fmt.Sprint(serr) {
			t.Fatalf("%s: errors differ: %v vs %v", what, ferr, serr)
		}
		if !reflect.DeepEqual(fr, sr) {
			t.Fatalf("%s: results differ:\n%+v\n%+v", what, fr, sr)
		}
		if fast.CleanHits() != slow.CleanHits() {
			t.Fatalf("%s: clean hits %d vs %d", what, fast.CleanHits(), slow.CleanHits())
		}
		// Printed, not compared: an empty memo slot holds NaN.
		if fm, sm := fmt.Sprintf("%+v", snapshotManager(fast.mgr)), fmt.Sprintf("%+v", snapshotManager(slow.mgr)); fm != sm {
			t.Fatalf("%s: manager state differs:\n%s\n%s", what, fm, sm)
		}
	}
	write := func(block, page int) {
		data := retryPage(uint64(1000*block+page), pageBytes)
		fr, ferr := fast.WritePage(block, page, data)
		sr, serr := slow.WritePage(block, page, data)
		same(fmt.Sprintf("write %d.%d", block, page), fr, sr, ferr, serr)
	}
	reads, retried, uncorrectable := 0, 0, 0
	read := func(block, page, budget int) {
		fdst, sdst := make([]byte, pageBytes), make([]byte, pageBytes)
		fr, ferr := fast.ReadPageRetryInto(block, page, budget, fdst)
		sr, serr := slow.ReadPageRetryInto(block, page, budget, sdst)
		what := fmt.Sprintf("read %d.%d budget %d", block, page, budget)
		same(what, fr, sr, ferr, serr)
		if string(fdst) != string(sdst) {
			t.Fatalf("%s: destination buffers differ", what)
		}
		reads++
		if fr.Retries > 0 {
			retried++
		}
		if errors.Is(ferr, ErrUncorrectable) {
			uncorrectable++
		}
	}
	both := func(f func(c *Controller) error) {
		if err := f(fast); err != nil {
			t.Fatal(err)
		}
		if err := f(slow); err != nil {
			t.Fatal(err)
		}
	}
	const pages = 6

	// Fresh pages: mostly clean senses, some single flips.
	for p := 0; p < pages; p++ {
		write(0, p)
	}
	// End-of-life blocks: tens of flips per sense.
	both(func(c *Controller) error { return c.Device().SetCycles(1, 1e6) })
	both(func(c *Controller) error { return c.Device().SetCycles(2, 1e6) })
	for p := 0; p < pages; p++ {
		write(1, p)
		write(2, p)
	}
	for p := 0; p < pages; p++ {
		read(0, p, 0)
		read(1, p, 0)
		read(1, p, 6)
	}
	// A page this controller did not program decodes the full way.
	for _, c := range []*Controller{fast, slow} {
		pb, _ := c.codec.ParityBytes(16)
		cw := make([]byte, pageBytes+pb)
		copy(cw, retryPage(77, pageBytes))
		if err := c.codec.EncodeInto(16, cw[pageBytes:], cw[:pageBytes]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Device().Program(2, pages, cw[:pageBytes], cw[pageBytes:], nand.ISPPSV); err != nil {
			t.Fatal(err)
		}
	}
	read(2, pages, 0)
	// Retention bake: single-shot reads fail, the ladder recovers them.
	both(func(c *Controller) error { c.Device().AdvanceTime(1e4); return nil })
	for p := 0; p <= pages; p++ {
		read(2, p, 0)
		read(2, p, 6)
		read(0, p%pages, 6)
	}
	// Rewritten pages carry new stamps.
	both(func(c *Controller) error { return c.EraseBlock(1) })
	for p := 0; p < pages; p++ {
		write(1, p)
		read(1, p, 6)
	}
	// Under-provisioned: t = 3 at end of life fails every rung.
	both(func(c *Controller) error { c.SetCapability(3); return c.Device().SetCycles(3, 1e6) })
	for p := 0; p < 3; p++ {
		write(3, p)
		read(3, p, 6)
	}

	if counter.calls == 0 || counter.failed == 0 {
		t.Fatalf("sensed path ran %d times (%d failed); the schedule does not exercise it", counter.calls, counter.failed)
	}
	if fast.CleanHits() == 0 || retried == 0 || uncorrectable == 0 {
		t.Fatalf("%d reads: %d clean hits, %d retried, %d uncorrectable; every class must occur",
			reads, fast.CleanHits(), retried, uncorrectable)
	}
	t.Logf("%d reads: %d sensed decodes (%d failed), %d clean hits, %d retried, %d uncorrectable",
		reads, counter.calls, counter.failed, fast.CleanHits(), retried, uncorrectable)
}

// TestEveryCleanReadCounted pins CleanHits to its condition: every read
// of a page this controller programmed whose sense injected no errors
// counts, the first read at each capability level included. Pages are
// written at two pinned levels on a fresh device and each is read once
// with no retry budget.
func TestEveryCleanReadCounted(t *testing.T) {
	c := newRig(t, false)
	const pages = 8
	levels := []int{8, 32}
	for b, level := range levels {
		c.SetCapability(level)
		for p := 0; p < pages; p++ {
			if _, err := c.WritePage(b, p, randPage(uint64(100*b+p))); err != nil {
				t.Fatal(err)
			}
		}
	}
	dst := make([]byte, c.Device().Calibration().PageDataBytes)
	clean := 0
	for b, level := range levels {
		for p := 0; p < pages; p++ {
			res, err := c.ReadPageRetryInto(b, p, 0, dst)
			if err != nil {
				t.Fatal(err)
			}
			if res.T != level {
				t.Fatalf("page %d.%d read at level %d, written at %d", b, p, res.T, level)
			}
			_, flips := c.Device().LastSense()
			if flips == 0 {
				clean++
			} else if p == 0 {
				t.Fatalf("level %d: the first read sensed %d flips; the test needs it clean", level, flips)
			}
		}
	}
	if got := c.CleanHits(); got != uint64(clean) {
		t.Fatalf("CleanHits = %d, want %d: every stamped zero-flip read counts", got, clean)
	}
}
