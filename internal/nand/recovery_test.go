package nand

import (
	"math"
	"testing"

	"xlnand/internal/stats"
)

// TestRecoveredRBERStepZeroMatchesStressed pins the ladder's anchor: a
// step-0 read is exactly the stressed RBER, at every corner.
func TestRecoveredRBERStepZeroMatchesStressed(t *testing.T) {
	cal := DefaultCalibration()
	s := DefaultStressConfig()
	for _, cyc := range []float64{0, 1e4, 1e6} {
		for _, h := range []float64{0, 500, 1e4} {
			got := cal.RecoveredRBER(s, ISPPSV, cyc, 100, h, 0)
			want := cal.StressedRBER(s, ISPPSV, cyc, 100, h)
			if got != want {
				t.Fatalf("step 0 at (%g cyc, %g h): %g != stressed %g", cyc, h, got, want)
			}
		}
	}
}

// TestRecoveredRBERFreshGainsNothing: a fresh page (no wear drift, no
// retention age) has an optimal step of 0, and shifting the references
// anyway only hurts.
func TestRecoveredRBERFreshGainsNothing(t *testing.T) {
	cal := DefaultCalibration()
	s := DefaultStressConfig()
	if k := cal.OptimalRetryStep(s, 0, 0); k != 0 {
		t.Fatalf("fresh-page optimal step = %d, want 0", k)
	}
	raw := cal.RecoveredRBER(s, ISPPSV, 0, 0, 0, 0)
	for step := 1; step <= s.RetrySteps; step++ {
		eff := cal.RecoveredRBER(s, ISPPSV, 0, 0, 0, step)
		if eff < raw {
			t.Fatalf("step %d improved a fresh page: %g < %g", step, eff, raw)
		}
	}
}

// TestRecoveredRBERBakedGainsOrderOfMagnitude anchors the recovery
// curve to Cai et al.: an end-of-life, long-baked page recovers close
// to an order of magnitude of RBER at its optimal ladder step, and the
// recovery is monotone up to that step.
func TestRecoveredRBERBakedGainsOrderOfMagnitude(t *testing.T) {
	cal := DefaultCalibration()
	s := DefaultStressConfig()
	const cycles, bake = 1e6, 1e4
	kOpt := cal.OptimalRetryStep(s, cycles, bake)
	if kOpt < 2 {
		t.Fatalf("EOL baked page has optimal step %d, expected a deep ladder", kOpt)
	}
	raw := cal.RecoveredRBER(s, ISPPSV, cycles, 0, bake, 0)
	prev := raw
	for step := 1; step <= kOpt; step++ {
		eff := cal.RecoveredRBER(s, ISPPSV, cycles, 0, bake, step)
		if eff > prev {
			t.Fatalf("recovery not monotone to the optimum: step %d %g > step %d %g",
				step, eff, step-1, prev)
		}
		prev = eff
	}
	gain := raw / prev
	if gain < 4 || gain > 20 {
		t.Fatalf("EOL baked recovery gain %.1fx at step %d, want roughly an order of magnitude", gain, kOpt)
	}
	// Past the optimum the over-shifted references hurt again.
	if kOpt < s.RetrySteps {
		over := cal.RecoveredRBER(s, ISPPSV, cycles, 0, bake, kOpt+1)
		if over <= prev {
			t.Fatalf("overshoot step %d (%g) not worse than optimum (%g)", kOpt+1, over, prev)
		}
	}
}

// TestOptimalStepGrowsWithClimate: deeper retention age and wear call
// for deeper ladder steps.
func TestOptimalStepGrowsWithClimate(t *testing.T) {
	cal := DefaultCalibration()
	s := DefaultStressConfig()
	young := cal.OptimalRetryStep(s, 1e3, 500)
	old := cal.OptimalRetryStep(s, 1e6, 500)
	baked := cal.OptimalRetryStep(s, 1e6, 1e4)
	if !(young <= old && old <= baked) {
		t.Fatalf("optimal step not monotone in climate: young %d, old %d, baked %d", young, old, baked)
	}
	if baked > s.RetrySteps {
		t.Fatalf("optimal step %d beyond ladder %d", baked, s.RetrySteps)
	}
}

// TestDeviceReadAtRecoversBakedPage drives the analytic device path:
// an aged, baked page read at its optimal step must carry measurably
// fewer raw bit errors than the nominal read.
func TestDeviceReadAtRecoversBakedPage(t *testing.T) {
	cal := DefaultCalibration()
	dev := NewDevice(cal, 1, 99)
	if err := dev.SetCycles(0, 1e6); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, cal.PageDataBytes)
	for i := range data {
		data[i] = byte(i * 13)
	}
	spare := make([]byte, 64)
	if _, err := dev.Program(0, 0, data, spare, ISPPSV); err != nil {
		t.Fatal(err)
	}
	dev.AdvanceTime(1e4)
	kOpt := cal.OptimalRetryStep(dev.Stress(), 1e6, 1e4)
	errsAt := func(step int) int {
		total := 0
		for rep := 0; rep < 8; rep++ {
			got, _, err := readAt(dev, 0, 0, step)
			if err != nil {
				t.Fatal(err)
			}
			total += bitDiff(got, data)
		}
		return total
	}
	nominal := errsAt(0)
	recovered := errsAt(kOpt)
	if nominal == 0 {
		t.Fatal("baked EOL page read clean at step 0; stress model inert")
	}
	if recovered*3 >= nominal {
		t.Fatalf("step %d read has %d errors vs %d nominal; expected >3x recovery", kOpt, recovered, nominal)
	}
}

// TestPageSimShiftedReferencesRecoverRetentionDrift is the Monte-Carlo
// ground truth for the analytic model: classify a heavily drifted page
// at nominal references and at retention-matched shifted references,
// and require the shifted read to misclassify fewer cells.
func TestPageSimShiftedReferencesRecoverRetentionDrift(t *testing.T) {
	cal := DefaultCalibration()
	rng := stats.NewRNG(4242)
	sim := NewPageSim(cal, 4096, rng.Split())
	aged := cal.Age(1e6)
	// Exaggerate the retention drift so the drifted distributions
	// straddle the nominal references.
	aged.RetShift = 0.30

	data := make([]byte, sim.Cells()/4)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	targets := TargetLevels(data)
	sim.Erase(aged)
	if _, err := sim.Program(targets, ISPPSV, aged); err != nil {
		t.Fatal(err)
	}
	countErrs := func(off ReadOffsets) int {
		got := sim.ReadLevelsInto(make([]Level, sim.Cells()), aged, off)
		n := 0
		for i, tgt := range targets {
			n += BitErrors(tgt, got[i])
		}
		return n
	}
	nominal := countErrs(ReadOffsets{})
	// L3 drifts by 2 x RetShift = 0.6 V, consuming the R3 margin — the
	// dominant error mechanism at this drift. Calibration moves R3 back
	// into the gap between the drifted L2 top and the drifted L3
	// bottom; the lower boundaries keep enough margin to stay put.
	shifted := countErrs(ReadOffsets{0, 0, -aged.RetShift})
	if nominal == 0 {
		t.Fatal("drifted page read clean at nominal references; drift model inert")
	}
	if shifted >= nominal {
		t.Fatalf("shifted read has %d errors vs %d nominal; reference calibration recovered nothing",
			shifted, nominal)
	}
	if math.Log2(float64(nominal+1)/float64(shifted+1)) < 2 {
		t.Fatalf("shifted read only %d vs %d errors; expected at least 4x recovery", shifted, nominal)
	}
}
