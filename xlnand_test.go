package xlnand

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

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

func TestWriteReadRoundTrip(t *testing.T) {
	s := openTest(t)
	data := pageOf(1, s.PageSize())
	if _, err := s.WritePage(0, 0, data); err != nil {
		t.Fatal(err)
	}
	rd, err := s.ReadPage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rd.Data, data) {
		t.Fatal("round trip corrupted data")
	}
}

func TestModeSwitchingChangesBehaviour(t *testing.T) {
	s := openTest(t)
	if err := s.AgeBlock(0, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := s.AgeBlock(1, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SelectMode(ModeNominal); err != nil {
		t.Fatal(err)
	}
	nom, err := s.WritePage(0, 0, pageOf(2, s.PageSize()))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SelectMode(ModeMaxRead); err != nil {
		t.Fatal(err)
	}
	fast, err := s.WritePage(1, 0, pageOf(3, s.PageSize()))
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
	if _, err := s.ReadPage(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadPage(1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestAgeBlockRejectsNonFiniteWear(t *testing.T) {
	s := openTest(t)
	for _, c := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.AgeBlock(1, c); err == nil {
			t.Fatalf("AgeBlock(1, %g) accepted", c)
		}
	}
	if c, err := s.BlockCycles(1); err != nil || c != 0 {
		t.Fatalf("rejected wear changed block 1: %g, %v", c, err)
	}
}

func TestMinUBERModeKeepsNominalT(t *testing.T) {
	s := openTest(t)
	if err := s.AgeBlock(0, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := s.AgeBlock(1, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SelectMode(ModeNominal); err != nil {
		t.Fatal(err)
	}
	nom, err := s.WritePage(0, 0, pageOf(4, s.PageSize()))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SelectMode(ModeMinUBER); err != nil {
		t.Fatal(err)
	}
	min, err := s.WritePage(1, 0, pageOf(5, s.PageSize()))
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
	if err := s.AgeBlock(0, 1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WritePage(0, 0, pageOf(6, s.PageSize())); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadPage(0, 0); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("want ErrUncorrectable, got %v", err)
	}
	if s.Uncorrectables() == 0 {
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

func TestLifetimeSweep(t *testing.T) {
	s := openTest(t)
	pts, err := s.LifetimeSweep([]float64{1, 1e3, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("sweep has %d points", len(pts))
	}
	for _, p := range pts {
		if p.MaxRead.T > p.Nominal.T {
			t.Fatal("max-read t above nominal in sweep")
		}
	}
	if pts[2].Nominal.T <= pts[0].Nominal.T {
		t.Fatal("nominal t did not grow with wear")
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
	s := openTest(t)
	pts, err := s.ExploreOperatingPoints(1e5, 8)
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFront(pts)
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
	ok := MeetsUBER(pts, 1e-11)
	for _, p := range ok {
		if p.UBER > 1e-11 {
			t.Fatal("MeetsUBER filter broken")
		}
	}
}

func TestPublicCodecRoundTrip(t *testing.T) {
	codec, err := NewCodec(16, 1024, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	msg := pageOf(8, 128)
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
	if !bytes.Equal(cw[:128], msg) {
		t.Fatal("codec round trip failed")
	}
}

func TestPublicUBERHelpers(t *testing.T) {
	if UBER(33808, 65, 1e-3) <= 0 {
		t.Fatal("UBER helper broken")
	}
	if UBERTail(33808, 65, 1e-3) < UBER(33808, 65, 1e-3) {
		t.Fatal("tail below dominant term")
	}
	tc, err := RequiredT(16, 32768, 1e-6, 1e-11, 65)
	if err != nil || tc != 3 {
		t.Fatalf("RequiredT = %d, %v", tc, err)
	}
	if RBER(ISPPDV, 1e6) >= RBER(ISPPSV, 1e6) {
		t.Fatal("RBER helper ordering broken")
	}
}

func TestExperimentRegistryAndRender(t *testing.T) {
	exps := Experiments()
	if len(exps) < 13 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	f, err := RunExperiment("fig05", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderASCII(f, 60, 15), "RBER ISPP-SV") {
		t.Fatal("ASCII render incomplete")
	}
	if !strings.Contains(RenderTable(f), "RBER ISPP-DV") {
		t.Fatal("table render incomplete")
	}
	if !strings.HasPrefix(RenderCSV(f), "series,x,y\n") {
		t.Fatal("CSV render incomplete")
	}
	if _, err := RunExperiment("nope", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
