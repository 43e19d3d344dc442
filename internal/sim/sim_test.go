package sim

import (
	"math"
	"testing"
	"time"

	"xlnand/internal/nand"
)

func TestRequiredTSchedule(t *testing.T) {
	e := DefaultEnv()
	// Paper §6.2 anchors.
	if got := e.RequiredT(nand.ISPPSV, 0); got != 3 {
		t.Fatalf("fresh SV t=%d, want 3", got)
	}
	sv := e.RequiredT(nand.ISPPSV, 1e6)
	if sv < 60 || sv > 65 {
		t.Fatalf("EOL SV t=%d, want ≈ 65", sv)
	}
	dv := e.RequiredT(nand.ISPPDV, 1e6)
	if dv < 12 || dv > 17 {
		t.Fatalf("EOL DV t=%d, want ≈ 14", dv)
	}
}

func TestEvaluateRejectsBadT(t *testing.T) {
	e := DefaultEnv()
	if _, err := e.Evaluate(nand.ISPPSV, 0, 0); err == nil {
		t.Fatal("t=0 accepted")
	}
	if _, err := e.Evaluate(nand.ISPPSV, 66, 0); err == nil {
		t.Fatal("t=66 accepted")
	}
}

// TestEvaluateRejectsBadCycles: wear must be a cycle count. Every
// analytic entry point passes through Evaluate, so each rejects it.
func TestEvaluateRejectsBadCycles(t *testing.T) {
	e := DefaultEnv()
	for _, cycles := range []float64{-5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, call := range map[string]func() error{
			"Evaluate": func() error { _, err := e.Evaluate(nand.ISPPSV, 30, cycles); return err },
			"EvaluateMode": func() error {
				_, err := e.EvaluateMode(ModeMaxRead, cycles)
				return err
			},
			"ExplorePoints": func() error { _, err := e.ExplorePoints(cycles, 16); return err },
			"ScaleDies":     func() error { _, err := e.ScaleDies(ModeNominal, cycles, 4); return err },
		} {
			if call() == nil {
				t.Errorf("%s accepted %g cycles", name, cycles)
			}
		}
	}
	if _, err := e.Evaluate(nand.ISPPSV, 30, 0); err != nil {
		t.Fatalf("fresh silicon rejected: %v", err)
	}
}

func TestOperatingPointSanity(t *testing.T) {
	e := DefaultEnv()
	op, err := e.Evaluate(nand.ISPPSV, 30, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if op.UBER <= 0 || op.UBER >= 1 {
		t.Fatalf("UBER %g out of range", op.UBER)
	}
	if op.ReadMBps <= 0 || op.WriteMBps <= 0 {
		t.Fatal("non-positive throughput")
	}
	if op.ReadLatency != nand.PageReadTime+op.DecodeLatency+
		(op.ReadLatency-nand.PageReadTime-op.DecodeLatency) {
		t.Fatal("latency accounting inconsistent")
	}
	if op.ProgramPowerW < 0.1 || op.ProgramPowerW > 0.25 {
		t.Fatalf("program power %g W implausible", op.ProgramPowerW)
	}
}

func TestModeMinUBERBoostsUBERAtSameReadLatency(t *testing.T) {
	// §6.3.1: switching SV->DV at fixed t improves UBER by orders of
	// magnitude without touching the read path.
	e := DefaultEnv()
	for _, cycles := range []float64{1e3, 1e5, 1e6} {
		nom, err := e.EvaluateMode(ModeNominal, cycles)
		if err != nil {
			t.Fatal(err)
		}
		min, err := e.EvaluateMode(ModeMinUBER, cycles)
		if err != nil {
			t.Fatal(err)
		}
		if min.T != nom.T {
			t.Fatalf("min-UBER changed t: %d vs %d", min.T, nom.T)
		}
		if min.ReadLatency != nom.ReadLatency {
			t.Fatalf("min-UBER changed read latency: %v vs %v",
				min.ReadLatency, nom.ReadLatency)
		}
		gain := math.Log10(nom.UBER) - math.Log10(min.UBER)
		if gain < 2 {
			t.Fatalf("N=%g: UBER boost only %.1f orders of magnitude", cycles, gain)
		}
		if min.WriteMBps >= nom.WriteMBps {
			t.Fatal("min-UBER mode should pay write throughput")
		}
	}
}

func TestModeMaxReadGainsThroughputAtConstantUBER(t *testing.T) {
	// §6.3.2: DV + relaxed t improves read throughput while UBER stays
	// at/below the target.
	e := DefaultEnv()
	nom, err := e.EvaluateMode(ModeNominal, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	max, err := e.EvaluateMode(ModeMaxRead, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if max.T >= nom.T {
		t.Fatalf("max-read did not relax t: %d vs %d", max.T, nom.T)
	}
	gain := max.ReadMBps/nom.ReadMBps - 1
	if gain < 0.15 || gain > 0.6 {
		t.Fatalf("EOL read gain %.1f%%, paper says up to ≈ 30%%", 100*gain)
	}
	if max.UBER > e.TargetUBER*10 {
		t.Fatalf("max-read UBER %g drifted above target %g", max.UBER, e.TargetUBER)
	}
	// Fresh device: both schedules collapse to t=3, gain ≈ 0.
	nomF, _ := e.EvaluateMode(ModeNominal, 0)
	maxF, _ := e.EvaluateMode(ModeMaxRead, 0)
	if g := maxF.ReadMBps/nomF.ReadMBps - 1; g > 0.02 {
		t.Fatalf("fresh read gain %.2f%% should be ≈ 0", 100*g)
	}
}

func TestModeMaxReadECCPowerRelaxation(t *testing.T) {
	// §6.3.2: ECC power drops from ≈ 7 mW to ≈ 1-2 mW when relaxed.
	e := DefaultEnv()
	nom, _ := e.EvaluateMode(ModeNominal, 1e6)
	max, _ := e.EvaluateMode(ModeMaxRead, 1e6)
	if nom.ECCPowerW < 6e-3 || nom.ECCPowerW > 8e-3 {
		t.Fatalf("nominal EOL ECC power %g W, want ≈ 7 mW", nom.ECCPowerW)
	}
	if max.ECCPowerW > 2.5e-3 {
		t.Fatalf("relaxed ECC power %g W, want ≈ 1-2 mW", max.ECCPowerW)
	}
	// Power budget roughly constant: DV's device-power increase is
	// compensated by the ECC savings within a few mW.
	nomTotal := nom.ProgramPowerW + nom.ECCPowerW
	maxTotal := max.ProgramPowerW + max.ECCPowerW
	if diff := math.Abs(nomTotal - maxTotal); diff > 6e-3 {
		t.Fatalf("power budget drifted by %.1f mW between modes", diff*1e3)
	}
}

func TestWriteLatencyDominatedByProgram(t *testing.T) {
	e := DefaultEnv()
	op, err := e.Evaluate(nand.ISPPDV, 14, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if op.WriteLatency != op.ProgramTime {
		t.Fatal("pipelined write latency should equal program time")
	}
	if op.ProgramTime < time.Millisecond {
		t.Fatalf("DV EOL program %v, paper says ≈ 1.5 ms", op.ProgramTime)
	}
	if op.EncodeLatency > op.ProgramTime/10 {
		t.Fatal("encode latency not negligible vs program")
	}
}

func TestEnergyMetrics(t *testing.T) {
	e := DefaultEnv()
	op, err := e.Evaluate(nand.ISPPSV, 30, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	// Order-of-magnitude sanity: MLC NAND writes cost a few nJ/bit,
	// reads tens of pJ/bit.
	if op.WriteEnergyPJPerBit < 1e3 || op.WriteEnergyPJPerBit > 2e4 {
		t.Fatalf("write energy %v pJ/bit implausible", op.WriteEnergyPJPerBit)
	}
	if op.ReadEnergyPJPerBit < 50 || op.ReadEnergyPJPerBit > 2e3 {
		t.Fatalf("read energy %v pJ/bit implausible", op.ReadEnergyPJPerBit)
	}
	// DV writes cost more energy per bit (longer operation at higher
	// average power).
	dv, err := e.Evaluate(nand.ISPPDV, 30, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if dv.WriteEnergyPJPerBit <= op.WriteEnergyPJPerBit {
		t.Fatal("DV write energy not above SV")
	}
	// Relaxing t reduces read energy (shorter decode, lower codec power).
	lo, err := e.Evaluate(nand.ISPPDV, 14, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := e.Evaluate(nand.ISPPDV, 65, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if lo.ReadEnergyPJPerBit >= hi.ReadEnergyPJPerBit {
		t.Fatal("relaxed codec did not reduce read energy")
	}
}

func TestModeString(t *testing.T) {
	if ModeNominal.String() != "nominal" || ModeMinUBER.String() != "min-UBER" ||
		ModeMaxRead.String() != "max-read" || Mode(9).String() != "mode?" {
		t.Fatal("mode names drifted")
	}
	if _, err := DefaultEnv().EvaluateMode(Mode(9), 0); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestExplorePointsGrid(t *testing.T) {
	e := DefaultEnv()
	pts, err := e.ExplorePoints(1e4, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 2 algorithms × ceil(63/10) capabilities.
	if len(pts) != 2*7 {
		t.Fatalf("grid has %d points", len(pts))
	}
	pts2, err := e.ExplorePoints(1e4, 0) // stride clamped to 1
	if err != nil {
		t.Fatal(err)
	}
	if len(pts2) != 2*63 {
		t.Fatalf("full grid has %d points", len(pts2))
	}
}

func TestParetoFrontProperties(t *testing.T) {
	e := DefaultEnv()
	pts, err := e.ExplorePoints(1e5, 4)
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFront(pts)
	if len(front) == 0 || len(front) > len(pts) {
		t.Fatalf("front size %d of %d", len(front), len(pts))
	}
	// No point on the front may dominate another front point.
	for i, a := range front {
		for j, b := range front {
			if i != j && dominates(a, b) {
				t.Fatalf("front point %d dominates front point %d", i, j)
			}
		}
	}
	// Every dropped point must be dominated by someone.
	inFront := func(p OperatingPoint) bool {
		for _, f := range front {
			if f == p {
				return true
			}
		}
		return false
	}
	for _, p := range pts {
		if inFront(p) {
			continue
		}
		dominated := false
		for _, q := range pts {
			if q != p && dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Fatal("non-dominated point missing from front")
		}
	}
}
