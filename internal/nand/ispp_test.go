package nand

import (
	"math"
	"testing"

	"xlnand/internal/stats"
)

const testCells = 2048 // cells per simulated test page (full page = 16384)

func freshPage(t *testing.T, seed uint64) (*PageSim, AgedParams) {
	t.Helper()
	cal := DefaultCalibration()
	sim := NewPageSim(cal, testCells, stats.NewRNG(seed))
	aged := cal.Age(0)
	sim.Erase(aged)
	return sim, aged
}

func uniformTargets(n int, l Level) []Level {
	out := make([]Level, n)
	for i := range out {
		out[i] = l
	}
	return out
}

func mixedTargets(r *stats.RNG, n int) []Level {
	out := make([]Level, n)
	for i := range out {
		out[i] = Level(r.Intn(4))
	}
	return out
}

func TestEraseDistribution(t *testing.T) {
	sim, _ := freshPage(t, 1)
	s := stats.Summarize(sim.VTHs())
	cal := DefaultCalibration()
	if math.Abs(s.Mean-cal.EraseMu) > 0.05 {
		t.Fatalf("erased mean = %v, want ~%v", s.Mean, cal.EraseMu)
	}
	if math.Abs(s.Std-cal.EraseSigma) > 0.05 {
		t.Fatalf("erased sigma = %v, want ~%v", s.Std, cal.EraseSigma)
	}
	if s.Max > cal.Read[0] {
		t.Fatalf("erased tail %v crosses R1 %v on a fresh device", s.Max, cal.Read[0])
	}
}

func TestProgramRequiresErase(t *testing.T) {
	sim, aged := freshPage(t, 2)
	targets := uniformTargets(testCells, L2)
	if _, err := sim.Program(targets, ISPPSV, aged); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Program(targets, ISPPSV, aged); err == nil {
		t.Fatal("second program without erase accepted")
	}
}

func TestProgramRejectsWrongTargetCount(t *testing.T) {
	sim, aged := freshPage(t, 3)
	if _, err := sim.Program(make([]Level, 5), ISPPSV, aged); err == nil {
		t.Fatal("mismatched target count accepted")
	}
}

func TestProgramPlacesAllLevels(t *testing.T) {
	for _, alg := range []Algorithm{ISPPSV, ISPPDV} {
		sim, aged := freshPage(t, 4)
		r := stats.NewRNG(44)
		targets := mixedTargets(r, testCells)
		res, err := sim.Program(targets, alg, aged)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures != 0 {
			t.Fatalf("%v: %d cells failed to program on fresh device", alg, res.Failures)
		}
		got := sim.ReadLevelsInto(make([]Level, sim.Cells()), aged, ReadOffsets{})
		wrong := 0
		for i := range targets {
			if got[i] != targets[i] {
				wrong++
			}
		}
		// Fresh-device misreads must be very rare (RBER ~ 1e-6..1e-5).
		if wrong > 3 {
			t.Fatalf("%v: %d/%d level misreads on fresh device", alg, wrong, testCells)
		}
	}
}

func TestProgrammedDistributionsAboveVerify(t *testing.T) {
	sim, aged := freshPage(t, 5)
	cal := DefaultCalibration()
	targets := uniformTargets(testCells, L3)
	if _, err := sim.Program(targets, ISPPSV, aged); err != nil {
		t.Fatal(err)
	}
	for i, v := range sim.VTHs() {
		if v < cal.VFY[2]-3*aged.ReadNoise-0.05 {
			t.Fatalf("cell %d verified at %v below VFY3 %v", i, v, cal.VFY[2])
		}
	}
}

func TestVTHMonotoneUnderPulses(t *testing.T) {
	// Property: programming never decreases a cell's VTH (program pulses
	// only add charge; erase is the only way down).
	sim, aged := freshPage(t, 6)
	before := sim.VTHs()
	r := stats.NewRNG(66)
	if _, err := sim.Program(mixedTargets(r, testCells), ISPPDV, aged); err != nil {
		t.Fatal(err)
	}
	after := sim.VTHs()
	for i := range before {
		if after[i] < before[i]-1e-9 {
			t.Fatalf("cell %d VTH decreased: %v -> %v", i, before[i], after[i])
		}
	}
}

func TestDVCompactsDistributions(t *testing.T) {
	// The whole point of ISPP-DV: the programmed distribution is tighter.
	cal := DefaultCalibration()
	width := func(alg Algorithm, seed uint64) float64 {
		sim := NewPageSim(cal, testCells, stats.NewRNG(seed))
		aged := cal.Age(0)
		sim.Erase(aged)
		if _, err := sim.Program(uniformTargets(testCells, L2), alg, aged); err != nil {
			t.Fatal(err)
		}
		return stats.Summarize(sim.VTHs()).Std
	}
	sv := width(ISPPSV, 7)
	dv := width(ISPPDV, 7)
	if dv >= sv*0.85 {
		t.Fatalf("DV sigma %v not clearly tighter than SV sigma %v", dv, sv)
	}
}

func TestDVCostsMoreTimeAndVerifies(t *testing.T) {
	cal := DefaultCalibration()
	run := func(alg Algorithm) ProgramResult {
		sim := NewPageSim(cal, testCells, stats.NewRNG(8))
		aged := cal.Age(0)
		sim.Erase(aged)
		r := stats.NewRNG(88)
		res, err := sim.Program(mixedTargets(r, testCells), alg, aged)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sv, dv := run(ISPPSV), run(ISPPDV)
	if dv.Duration <= sv.Duration {
		t.Fatalf("DV %v not slower than SV %v", dv.Duration, sv.Duration)
	}
	if dv.PreVerifies == 0 {
		t.Fatal("DV performed no pre-verifies")
	}
	if sv.PreVerifies != 0 {
		t.Fatal("SV performed pre-verifies")
	}
	loss := 1 - float64(sv.Duration)/float64(dv.Duration)
	if loss < 0.25 || loss > 0.60 {
		t.Fatalf("write loss %.1f%% outside plausible band (paper: 40-48%%)", 100*loss)
	}
}

func TestProgramTimelineConsistency(t *testing.T) {
	sim, aged := freshPage(t, 9)
	r := stats.NewRNG(99)
	res, err := sim.Program(mixedTargets(r, testCells), ISPPDV, aged)
	if err != nil {
		t.Fatal(err)
	}
	if got := TimelineDuration(res.Timeline); got != res.Duration {
		t.Fatalf("timeline sums to %v, result says %v", got, res.Duration)
	}
	var pulses, verifies int
	for _, ph := range res.Timeline {
		switch ph.Kind {
		case PhaseProgram:
			pulses++
			if ph.VCG < DefaultCalibration().VStart || ph.VCG > DefaultCalibration().VEnd {
				t.Fatalf("pulse VCG %v outside pump range", ph.VCG)
			}
			if ph.ActiveFrac <= 0 || ph.ActiveFrac > 1 {
				t.Fatalf("active fraction %v out of (0,1]", ph.ActiveFrac)
			}
		case PhaseVerify:
			verifies++
		}
	}
	if pulses != res.Pulses {
		t.Fatalf("timeline has %d pulses, result %d", pulses, res.Pulses)
	}
	if verifies != res.Verifies+res.PreVerifies {
		t.Fatalf("timeline has %d verifies, result %d+%d", verifies, res.Verifies, res.PreVerifies)
	}
}

func TestL0PageProgramsInstantly(t *testing.T) {
	// A page targeted entirely at L0 needs no pulses at all.
	sim, aged := freshPage(t, 10)
	res, err := sim.Program(uniformTargets(testCells, L0), ISPPSV, aged)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pulses != 0 || res.Verifies != 0 {
		t.Fatalf("L0 page used %d pulses, %d verifies", res.Pulses, res.Verifies)
	}
}

func TestL3PatternSlowerThanL1(t *testing.T) {
	// Higher target levels need a longer pump ramp — the pattern
	// dependence behind Fig. 6.
	cal := DefaultCalibration()
	dur := func(l Level) ProgramResult {
		sim := NewPageSim(cal, testCells, stats.NewRNG(11))
		aged := cal.Age(0)
		sim.Erase(aged)
		res, err := sim.Program(uniformTargets(testCells, l), ISPPSV, aged)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	l1, l2, l3 := dur(L1), dur(L2), dur(L3)
	if !(l1.Duration < l2.Duration && l2.Duration < l3.Duration) {
		t.Fatalf("pattern durations not ordered: L1=%v L2=%v L3=%v",
			l1.Duration, l2.Duration, l3.Duration)
	}
	if !(l1.MaxVCG < l3.MaxVCG) {
		t.Fatalf("L3 did not need a higher VCG than L1")
	}
}

func TestAgingBroadensDistributions(t *testing.T) {
	cal := DefaultCalibration()
	width := func(cycles float64) float64 {
		sim := NewPageSim(cal, testCells, stats.NewRNG(12))
		aged := cal.Age(cycles)
		sim.Erase(aged)
		if _, err := sim.Program(uniformTargets(testCells, L2), ISPPSV, aged); err != nil {
			t.Fatal(err)
		}
		return stats.Summarize(sim.VTHs()).Std
	}
	fresh, aged := width(100), width(1e6)
	if aged <= fresh {
		t.Fatalf("aged sigma %v not wider than fresh %v", aged, fresh)
	}
}

func TestAgedParamsMonotone(t *testing.T) {
	cal := DefaultCalibration()
	prev := cal.Age(0)
	for _, n := range []float64{1e2, 1e3, 1e4, 1e5, 1e6} {
		cur := cal.Age(n)
		if cur.InjSigma < prev.InjSigma || cur.EraseSigma < prev.EraseSigma ||
			cur.RetShift < prev.RetShift || cur.KSlowTail < prev.KSlowTail {
			t.Fatalf("aging parameters not monotone at N=%g", n)
		}
		prev = cur
	}
	if cal.Age(-5).Cycles != 0 {
		t.Fatal("negative cycles not clamped")
	}
}

func TestNoProgramFailuresThroughLifetime(t *testing.T) {
	// The pulse budget must cover the slow-cell tail through end of life
	// for both algorithms (a failure here means mis-calibration).
	cal := DefaultCalibration()
	for _, alg := range []Algorithm{ISPPSV, ISPPDV} {
		for _, cycles := range []float64{0, 1e4, 1e6} {
			sim := NewPageSim(cal, testCells, stats.NewRNG(13))
			aged := cal.Age(cycles)
			sim.Erase(aged)
			r := stats.NewRNG(133)
			res, err := sim.Program(mixedTargets(r, testCells), alg, aged)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failures != 0 {
				t.Fatalf("%v at N=%g: %d program failures", alg, cycles, res.Failures)
			}
		}
	}
}
