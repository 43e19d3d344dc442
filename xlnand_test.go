package xlnand

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"xlnand/internal/sim"
	"xlnand/internal/stats"
)

func openTest(t *testing.T) *Subsystem {
	t.Helper()
	s, err := Open(WithBlocks(4), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// writePage and readPage run one die-0 request through a queue and
// return a copy of its result.
func writePage(s *Subsystem, block, page int, data []byte) (WriteResult, error) {
	comp, err := s.NewQueue().Do(context.Background(), WriteRequest(0, block, page, data))
	if comp.Write == nil {
		return WriteResult{}, err
	}
	return *comp.Write, err
}

func readPage(s *Subsystem, block, page int) (ReadResult, error) {
	comp, err := s.NewQueue().Do(context.Background(), ReadRequest(0, block, page))
	if comp.Read == nil {
		return ReadResult{}, err
	}
	return *comp.Read, err
}

func pageOf(seed uint64, size int) []byte {
	r := stats.NewRNG(seed)
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	return data
}

func TestOpenDefaults(t *testing.T) {
	s, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if s.PageSize() != 4096 || s.Blocks() != 8 || s.PagesPerBlock() != 64 {
		t.Fatalf("default geometry: %d/%d/%d", s.PageSize(), s.Blocks(), s.PagesPerBlock())
	}
	if s.Mode() != ModeNominal {
		t.Fatal("default mode not nominal")
	}
}

func TestOpenRejectsNegativeBlocks(t *testing.T) {
	if _, err := Open(WithBlocks(-1)); err == nil {
		t.Fatal("negative blocks accepted")
	}
}

// TestOpenRejectsBadConfig: a clock that is not a positive finite rate
// would make its pipeline stage free, and a die without blocks fails
// every operation, so Open refuses them all.
func TestOpenRejectsBadConfig(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"zero blocks", WithBlocks(0)},
		{"zero dies", WithDies(0)},
		{"bus NaN clock", WithBus(BusConfig{WidthBits: 8, ClockHz: nan})},
		{"bus +Inf clock", WithBus(BusConfig{WidthBits: 8, ClockHz: inf})},
		{"bus -Inf clock", WithBus(BusConfig{WidthBits: 8, ClockHz: -inf})},
		{"bus zero clock", WithBus(BusConfig{WidthBits: 8, ClockHz: 0})},
		{"bus zero width", WithBus(BusConfig{WidthBits: 0, ClockHz: 33e6})},
		{"codec NaN clock", WithCodecHW(8, 32, nan)},
		{"codec +Inf clock", WithCodecHW(8, 32, inf)},
		{"codec negative clock", WithCodecHW(8, 32, -80e6)},
		{"codec zero width", WithCodecHW(0, 32, 80e6)},
		{"codec zero Chien parallelism", WithCodecHW(8, 0, 80e6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if s, err := Open(tc.opt); err == nil {
				s.Close()
				t.Fatal("accepted")
			}
		})
	}
	s, err := Open(WithBlocks(1), WithBus(BusConfig{WidthBits: 8, ClockHz: 66e6}), WithCodecHW(16, 32, 160e6))
	if err != nil {
		t.Fatalf("valid configuration rejected: %v", err)
	}
	s.Close()
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := openTest(t)
	data := pageOf(1, s.PageSize())
	if _, err := writePage(s, 0, 0, data); err != nil {
		t.Fatal(err)
	}
	rd, err := readPage(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rd.Data, data) {
		t.Fatal("round trip corrupted data")
	}
}

func TestModeSwitchingChangesBehaviour(t *testing.T) {
	s := openTest(t)
	if err := s.AgeBlock(0, 0, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := s.AgeBlock(0, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SelectMode(ModeNominal); err != nil {
		t.Fatal(err)
	}
	nom, err := writePage(s, 0, 0, pageOf(2, s.PageSize()))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SelectMode(ModeMaxRead); err != nil {
		t.Fatal(err)
	}
	fast, err := writePage(s, 1, 0, pageOf(3, s.PageSize()))
	if err != nil {
		t.Fatal(err)
	}
	if fast.Alg != ISPPDV || nom.Alg != ISPPSV {
		t.Fatalf("modes did not steer the algorithm: %v/%v", nom.Alg, fast.Alg)
	}
	if fast.T >= nom.T {
		t.Fatalf("max-read t=%d not relaxed vs nominal t=%d", fast.T, nom.T)
	}
	// Both decode fine.
	if _, err := readPage(s, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := readPage(s, 1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestAgeBlockRejectsNonFiniteWear(t *testing.T) {
	s := openTest(t)
	for _, c := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.AgeBlock(0, 1, c); err == nil {
			t.Fatalf("AgeBlock(0, 1, %g) accepted", c)
		}
	}
	if c, err := s.disp.Cycles(0, 1); err != nil || c != 0 {
		t.Fatalf("rejected wear changed block 1: %g, %v", c, err)
	}
}

// TestAgeBlockAddressesOneDie: aging a block wears that die's block and
// no other, and an address outside the geometry is a typed error.
func TestAgeBlockAddressesOneDie(t *testing.T) {
	s, err := Open(WithDies(2), WithBlocks(2), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AgeBlock(1, 1, 4e4); err != nil {
		t.Fatal(err)
	}
	for die := 0; die < 2; die++ {
		for block := 0; block < 2; block++ {
			want := 0.0
			if die == 1 && block == 1 {
				want = 4e4
			}
			if c, err := s.disp.Cycles(die, block); err != nil || c != want {
				t.Fatalf("die %d block %d: wear %g, %v; want %g", die, block, c, err, want)
			}
		}
	}
	for _, die := range []int{-1, 2} {
		if err := s.AgeBlock(die, 0, 1e3); !errors.Is(err, ErrBadAddress) {
			t.Fatalf("AgeBlock(%d, 0, 1e3): %v, want ErrBadAddress", die, err)
		}
	}
	if err := s.AgeBlock(0, 2, 1e3); err == nil {
		t.Fatal("AgeBlock on a block outside the die accepted")
	}
}

// TestAdvanceTimeRejectsNonFiniteHours: a non-finite bake is an error,
// and after Close every bake reports ErrClosed. Zero and negative hours
// stay a no-op.
func TestAdvanceTimeRejectsNonFiniteHours(t *testing.T) {
	s := openTest(t)
	for _, h := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if err := s.AdvanceTime(h); err == nil {
			t.Fatalf("AdvanceTime(%g) accepted", h)
		}
	}
	for _, h := range []float64{0, -5} {
		if err := s.AdvanceTime(h); err != nil {
			t.Fatalf("AdvanceTime(%g): %v", h, err)
		}
	}
	s.Close()
	if err := s.AdvanceTime(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("AdvanceTime after Close: %v, want ErrClosed", err)
	}
}

func TestMinUBERModeKeepsNominalT(t *testing.T) {
	s := openTest(t)
	if err := s.AgeBlock(0, 0, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := s.AgeBlock(0, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SelectMode(ModeNominal); err != nil {
		t.Fatal(err)
	}
	nom, err := writePage(s, 0, 0, pageOf(4, s.PageSize()))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SelectMode(ModeMinUBER); err != nil {
		t.Fatal(err)
	}
	min, err := writePage(s, 1, 0, pageOf(5, s.PageSize()))
	if err != nil {
		t.Fatal(err)
	}
	if min.T != nom.T {
		t.Fatalf("min-UBER t=%d differs from nominal t=%d", min.T, nom.T)
	}
	if min.Alg != ISPPDV {
		t.Fatal("min-UBER did not switch the physical layer")
	}
}

func TestSelectModeRejectsUnknown(t *testing.T) {
	s := openTest(t)
	if err := s.SelectMode(Mode(99)); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestUncorrectableSurfaced(t *testing.T) {
	// The recovery ladder would rescue this deliberately
	// under-provisioned page (the wear-drift share of its errors is
	// exactly what shifted references remove), so the single-shot path
	// is requested explicitly to exercise the failure surface.
	s, err := Open(WithBlocks(4), WithSeed(7), WithReadRetry(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.SetCapability(3)
	if err := s.AgeBlock(0, 0, 1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := writePage(s, 0, 0, pageOf(6, s.PageSize())); err != nil {
		t.Fatal(err)
	}
	if _, err := readPage(s, 0, 0); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("want ErrUncorrectable, got %v", err)
	}
	if s.disp.Controller(0).Manager().Uncorrectables() == 0 {
		t.Fatal("uncorrectable counter not incremented")
	}
}

func TestEvaluateModeMetrics(t *testing.T) {
	s := openTest(t)
	nom, err := s.EvaluateMode(ModeNominal, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := s.EvaluateMode(ModeMaxRead, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if gain := fast.ReadMBps/nom.ReadMBps - 1; gain < 0.15 {
		t.Fatalf("EOL read gain %.0f%% too small", gain*100)
	}
	minU, err := s.EvaluateMode(ModeMinUBER, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Log10(nom.UBER)-math.Log10(minU.UBER) < 2 {
		t.Fatal("min-UBER boost below two decades")
	}
}

// TestLifetimeSweep walks the service levels across the wear grid: the
// relaxed max-read code never needs more capability than nominal, and
// the nominal schedule grows with wear.
func TestLifetimeSweep(t *testing.T) {
	s := openTest(t)
	var nominalT []int
	for _, cycles := range []float64{1, 1e3, 1e6} {
		nom, err := s.EvaluateMode(ModeNominal, cycles)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := s.EvaluateMode(ModeMaxRead, cycles)
		if err != nil {
			t.Fatal(err)
		}
		if fast.T > nom.T {
			t.Fatalf("max-read t=%d above nominal t=%d at %g cycles", fast.T, nom.T, cycles)
		}
		nominalT = append(nominalT, nom.T)
	}
	if nominalT[2] <= nominalT[0] {
		t.Fatalf("nominal t did not grow with wear: %v", nominalT)
	}
}

// TestTargetUBERExact: the default target is the paper's 1e-11 to the
// last bit, the same value the analytic environment carries, so the
// sub-system and sim.DefaultEnv() size capability against one number.
func TestTargetUBERExact(t *testing.T) {
	s := openTest(t)
	if got := s.env.TargetUBER; math.Float64bits(got) != math.Float64bits(1e-11) {
		t.Fatalf("target UBER = %v, want exactly 1e-11", got)
	}
	if got, want := s.env.TargetUBER, sim.DefaultEnv().TargetUBER; got != want {
		t.Fatalf("target UBER = %v, analytic environment has %v", got, want)
	}
}

func TestRequiredTSchedulePublic(t *testing.T) {
	s := openTest(t)
	if got := s.RequiredT(ISPPSV, 0); got != 3 {
		t.Fatalf("fresh SV t=%d", got)
	}
	if got := s.RequiredT(ISPPSV, 1e6); got < 60 {
		t.Fatalf("EOL SV t=%d", got)
	}
}

func TestParetoAndFilters(t *testing.T) {
	pts, err := sim.DefaultEnv().ExplorePoints(1e5, 8)
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFront(pts)
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
}

func TestPublicCodecRoundTrip(t *testing.T) {
	codec, err := NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	msg := pageOf(8, 4096)
	cw, err := codec.EncodeCodeword(5, msg)
	if err != nil {
		t.Fatal(err)
	}
	cw[3] ^= 0x10
	cw[60] ^= 0x01
	n, err := codec.Decode(5, cw)
	if err != nil || n != 2 {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if !bytes.Equal(cw[:4096], msg) {
		t.Fatal("codec round trip failed")
	}
}

func TestPublicUBERHelpers(t *testing.T) {
	tc, err := RequiredT(16, 32768, 1e-6, 1e-11, 65)
	if err != nil || tc != 3 {
		t.Fatalf("RequiredT = %d, %v", tc, err)
	}
	if RBER(ISPPDV, 1e6) >= RBER(ISPPSV, 1e6) {
		t.Fatal("RBER helper ordering broken")
	}
}
