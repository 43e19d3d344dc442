package nand

import (
	"testing"

	"xlnand/internal/stats"
)

// TestProgramFailureWhenPumpCeilingTooLow injects a miscalibration: a
// pump ceiling too low for the L3 verify level must surface as counted
// program failures (the status-fail path), never as silent success.
func TestProgramFailureWhenPumpCeilingTooLow(t *testing.T) {
	cal := DefaultCalibration()
	cal.VEnd = cal.VFY[2] + cal.KOffsetMu - 1.0 // L3 unreachable for most cells
	sim := NewPageSim(cal, 512, stats.NewRNG(70))
	aged := cal.Age(0)
	sim.Erase(aged)
	res, err := sim.Program(uniformTargets(512, L3), ISPPSV, aged)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("unreachable verify level reported zero failures")
	}
	// The failing cells must still be below the verify level.
	below := 0
	for _, v := range sim.VTHs() {
		if v < cal.VFY[2] {
			below++
		}
	}
	if below < res.Failures {
		t.Fatalf("%d failures reported but only %d cells below VFY3", res.Failures, below)
	}
}

// TestProgramFailureSlowCellTail: an extreme slow-cell tail (gross
// end-of-life) exhausts the pulse budget for some cells.
func TestProgramFailureSlowCellTail(t *testing.T) {
	cal := DefaultCalibration()
	cal.AgingSlowTail = 1.2 // pathological tail growth
	sim := NewPageSim(cal, 2048, stats.NewRNG(71))
	aged := cal.Age(1e6)
	sim.Erase(aged)
	res, err := sim.Program(uniformTargets(2048, L3), ISPPSV, aged)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("pathological slow-cell tail produced no failures")
	}
}

// TestOverProgrammingStaysBounded: no cell may exceed the over-program
// level OP on a healthy device — over-programmed cells would read as a
// higher level permanently (paper Fig. 3's OP marker).
func TestOverProgrammingStaysBounded(t *testing.T) {
	cal := DefaultCalibration()
	for _, alg := range []Algorithm{ISPPSV, ISPPDV} {
		sim := NewPageSim(cal, 4096, stats.NewRNG(72))
		aged := cal.Age(0)
		sim.Erase(aged)
		r := stats.NewRNG(720)
		if _, err := sim.Program(mixedTargets(r, 4096), alg, aged); err != nil {
			t.Fatal(err)
		}
		for i, v := range sim.VTHs() {
			if v > cal.OverProg {
				t.Fatalf("%v: cell %d over-programmed to %.2f V (OP %.2f)", alg, i, v, cal.OverProg)
			}
		}
	}
}

// TestCCICouplingShiftsVictims: programming neighbours must push a
// victim cell's threshold upward, and disabling the coupling must remove
// the effect.
func TestCCICouplingShiftsVictims(t *testing.T) {
	run := func(coupling float64) float64 {
		cal := DefaultCalibration()
		cal.CCICoupling = coupling
		sim := NewPageSim(cal, 3*256, stats.NewRNG(73))
		aged := cal.Age(0)
		sim.Erase(aged)
		// Pattern: victim cells target L1, neighbours target L3.
		targets := make([]Level, 3*256)
		for i := range targets {
			if i%3 == 1 {
				targets[i] = L1
			} else {
				targets[i] = L3
			}
		}
		if _, err := sim.Program(targets, ISPPSV, aged); err != nil {
			t.Fatal(err)
		}
		var sum float64
		var n int
		for i, v := range sim.VTHs() {
			if i%3 == 1 {
				sum += v
				n++
			}
		}
		return sum / float64(n)
	}
	with := run(0.12)
	without := run(0)
	if with <= without {
		t.Fatalf("CCI did not raise victim VTH: %.4f vs %.4f", with, without)
	}
}

// TestReadNoiseCausesBoundaryMisreads: with exaggerated sensing noise,
// misreads appear even on a fresh device, and they disappear when the
// noise is removed.
func TestReadNoiseCausesBoundaryMisreads(t *testing.T) {
	run := func(noise float64) int {
		cal := DefaultCalibration()
		cal.ReadNoiseSigma = noise
		sim := NewPageSim(cal, 4096, stats.NewRNG(74))
		aged := cal.Age(0)
		sim.Erase(aged)
		r := stats.NewRNG(740)
		targets := mixedTargets(r, 4096)
		if _, err := sim.Program(targets, ISPPSV, aged); err != nil {
			t.Fatal(err)
		}
		got := sim.ReadLevelsInto(make([]Level, sim.Cells()), aged, ReadOffsets{})
		errs := 0
		for i := range targets {
			errs += BitErrors(targets[i], got[i])
		}
		return errs
	}
	noisy := run(0.30)
	clean := run(0.0)
	if noisy <= clean {
		t.Fatalf("sensing noise had no effect: %d vs %d", noisy, clean)
	}
	if noisy < 10 {
		t.Fatalf("0.3 V sensing noise produced only %d errors", noisy)
	}
}
