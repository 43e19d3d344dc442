package controller

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"xlnand/internal/bch"
	"xlnand/internal/nand"
	"xlnand/internal/stats"
)

// newRig builds a full-page controller rig (GF(2^16), 4 KB pages).
func newRig(t *testing.T, adaptive bool) *Controller {
	t.Helper()
	dev := nand.NewDevice(nand.DefaultCalibration(), 4, 1234)
	codec, err := bch.NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Adaptive = adaptive
	c, err := New(dev, bch.NewHWCodec(codec, bch.DefaultHWConfig()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randPage(seed uint64) []byte {
	r := stats.NewRNG(seed)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	return data
}

// TestTargetUBERExact: the default register exponent decodes to the
// paper's 1e-11 to the last bit, the target the manager sizes
// capability against.
func TestTargetUBERExact(t *testing.T) {
	c := newRig(t, true)
	if got := c.targetUBER(); math.Float64bits(got) != math.Float64bits(1e-11) {
		t.Fatalf("target UBER = %v, want exactly 1e-11", got)
	}
	if got := c.mgr.targetUBER; got != 1e-11 {
		t.Fatalf("manager target = %v, want 1e-11", got)
	}
}

func TestNewRejectsMismatchedCodec(t *testing.T) {
	dev := nand.NewDevice(nand.DefaultCalibration(), 1, 1)
	codec, err := bch.NewCodec(16, 1024, 3, 10) // protects 1024 bits, page has 32768
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(dev, bch.NewHWCodec(codec, bch.DefaultHWConfig()), DefaultConfig()); err == nil {
		t.Fatal("mismatched codec accepted")
	}
}

func TestWriteReadRoundTripFresh(t *testing.T) {
	c := newRig(t, true)
	data := randPage(1)
	wr, err := c.WritePage(0, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if wr.T < 3 || wr.T > 65 {
		t.Fatalf("capability %d outside codec range", wr.T)
	}
	rd, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rd.Data, data) {
		t.Fatal("data corrupted through write/read")
	}
	if rd.T != wr.T {
		t.Fatalf("read used t=%d, page written at t=%d", rd.T, wr.T)
	}
}

func TestFreshDeviceUsesMinimalT(t *testing.T) {
	// Paper: at fresh RBER 1e-6 with margin, t stays small (3-4).
	c := newRig(t, true)
	wr, err := c.WritePage(0, 0, randPage(2))
	if err != nil {
		t.Fatal(err)
	}
	if wr.T > 5 {
		t.Fatalf("fresh device assigned t=%d, expected near the t=3 floor", wr.T)
	}
}

func TestAgedBlockRaisesT(t *testing.T) {
	c := newRig(t, true)
	if err := c.Device().SetCycles(1, 1e6); err != nil {
		t.Fatal(err)
	}
	fresh, err := c.WritePage(0, 0, randPage(3))
	if err != nil {
		t.Fatal(err)
	}
	aged, err := c.WritePage(1, 0, randPage(4))
	if err != nil {
		t.Fatal(err)
	}
	if aged.T <= fresh.T {
		t.Fatalf("aged block t=%d not above fresh t=%d", aged.T, fresh.T)
	}
	if aged.T < 60 {
		t.Fatalf("EOL SV block got t=%d, paper says ≈ 65", aged.T)
	}
}

func TestAgedReadsCorrectErrors(t *testing.T) {
	c := newRig(t, true)
	if err := c.Device().SetCycles(0, 1e5); err != nil {
		t.Fatal(err)
	}
	data := randPage(5)
	if _, err := c.WritePage(0, 0, data); err != nil {
		t.Fatal(err)
	}
	totalCorrected := 0
	for i := 0; i < 5; i++ {
		rd, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rd.Data, data) {
			t.Fatal("corrected data mismatch")
		}
		totalCorrected += rd.Corrected
	}
	// RBER ≈ 1.8e-4 over ~33.5 kbit: ≈ 6 errors per read.
	if totalCorrected == 0 {
		t.Fatal("no errors corrected at 1e5 cycles; fault injection broken?")
	}
}

func TestDVWritesNeedLowerT(t *testing.T) {
	c := newRig(t, true)
	if err := c.Device().SetCycles(0, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := c.Device().SetCycles(1, 1e6); err != nil {
		t.Fatal(err)
	}
	c.SetAlgorithm(nand.ISPPSV)
	sv, err := c.WritePage(0, 0, randPage(6))
	if err != nil {
		t.Fatal(err)
	}
	c.SetAlgorithm(nand.ISPPDV)
	dv, err := c.WritePage(1, 0, randPage(7))
	if err != nil {
		t.Fatal(err)
	}
	if dv.T >= sv.T {
		t.Fatalf("DV t=%d not below SV t=%d at EOL", dv.T, sv.T)
	}
	if dv.T > 20 {
		t.Fatalf("DV EOL t=%d, paper says ≈ 14", dv.T)
	}
	if dv.ParityBy >= sv.ParityBy {
		t.Fatal("DV parity not smaller than SV parity")
	}
	if dv.Latency.Program <= sv.Latency.Program {
		t.Fatal("DV program not slower than SV")
	}
}

func TestManualCapabilityRespected(t *testing.T) {
	c := newRig(t, false)
	c.SetCapability(10)
	wr, err := c.WritePage(0, 0, randPage(8))
	if err != nil {
		t.Fatal(err)
	}
	if wr.T != 10 {
		t.Fatalf("manual t=10 ignored, used %d", wr.T)
	}
	// Reconfigure before read: the page must still decode at t=10.
	c.SetCapability(30)
	rd, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rd.T != 10 {
		t.Fatalf("read did not recover written capability: %d", rd.T)
	}
}

func TestCapabilityClamped(t *testing.T) {
	c := newRig(t, false)
	c.SetCapability(200)
	wr, err := c.WritePage(0, 0, randPage(9))
	if err != nil {
		t.Fatal(err)
	}
	if wr.T != 65 {
		t.Fatalf("t=200 clamped to %d, want 65", wr.T)
	}
}

func TestWriteRejectsBadSize(t *testing.T) {
	c := newRig(t, true)
	if _, err := c.WritePage(0, 0, make([]byte, 100)); err == nil {
		t.Fatal("short page accepted")
	}
}

func TestUncorrectablePathAndStatus(t *testing.T) {
	c := newRig(t, false)
	c.SetCapability(3) // deliberately under-provisioned
	if err := c.Device().SetCycles(0, 1e6); err != nil {
		t.Fatal(err) // SV RBER 1e-3: ≈ 33 errors per codeword >> 3
	}
	if _, err := c.WritePage(0, 0, randPage(10)); err != nil {
		t.Fatal(err)
	}
	_, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("want ErrUncorrectable, got %v", err)
	}
	s, _ := c.regs.Read(RegStatus)
	if s&StatusUncorrectable == 0 {
		t.Fatal("STATUS missing uncorrectable bit")
	}
	if c.Manager().Uncorrectables() == 0 {
		t.Fatal("manager did not observe the failure")
	}
}

func TestReadLatencyGrowsWithT(t *testing.T) {
	c := newRig(t, false)
	data := randPage(11)
	c.SetCapability(3)
	if _, err := c.WritePage(0, 0, data); err != nil {
		t.Fatal(err)
	}
	c.SetCapability(65)
	if _, err := c.WritePage(0, 1, data); err != nil {
		t.Fatal(err)
	}
	r3, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r65, err := c.ReadPageRetryInto(0, 1, c.ReadRetry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r65.Latency.Decode <= r3.Latency.Decode {
		t.Fatalf("decode latency t=65 (%v) not above t=3 (%v)",
			r65.Latency.Decode, r3.Latency.Decode)
	}
	if r3.Latency.TR != nand.PageReadTime {
		t.Fatalf("tR = %v, want %v", r3.Latency.TR, nand.PageReadTime)
	}
	if r3.Latency.Total() != r3.Latency.TR+r3.Latency.Transfer+r3.Latency.Decode {
		t.Fatal("latency total not additive")
	}
}

func TestWriteLatencyBreakdown(t *testing.T) {
	c := newRig(t, true)
	wr, err := c.WritePage(0, 0, randPage(12))
	if err != nil {
		t.Fatal(err)
	}
	l := wr.Latency
	if l.Total() != l.Encode+l.Transfer+l.Program {
		t.Fatal("write latency not additive")
	}
	if l.Program < 10*l.Encode {
		t.Fatalf("program (%v) should dominate encode (%v) per paper §6.3.3", l.Program, l.Encode)
	}
}

func TestAlgorithmRegisterDrivesDevice(t *testing.T) {
	c := newRig(t, true)
	c.SetAlgorithm(nand.ISPPDV)
	wr, err := c.WritePage(0, 0, randPage(13))
	if err != nil {
		t.Fatal(err)
	}
	if wr.Alg != nand.ISPPDV {
		t.Fatalf("algorithm register ignored: wrote with %v", wr.Alg)
	}
	if wr.Program.PreVerifies == 0 {
		t.Fatal("DV write shows no pre-verifies")
	}
}

func TestEraseBlockResetsPages(t *testing.T) {
	c := newRig(t, true)
	if _, err := c.WritePage(2, 0, randPage(14)); err != nil {
		t.Fatal(err)
	}
	if err := c.EraseBlock(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadPageRetryInto(2, 0, c.ReadRetry(), nil); err == nil {
		t.Fatal("read of erased page succeeded")
	}
	if _, err := c.WritePage(2, 0, randPage(15)); err != nil {
		t.Fatalf("rewrite after erase failed: %v", err)
	}
}
