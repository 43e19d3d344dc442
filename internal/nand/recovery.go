package nand

import "math"

// This file models staged read-retry with read-reference calibration —
// the recovery mechanism of Cai et al. ("Data Retention in MLC NAND
// Flash Memory: Characterization, Optimization, and Recovery", HPCA'15):
// programmed V_TH distributions drift downward as stored charge leaks,
// so a page that fails ECC at the nominal R1-R3 references often reads
// back correctly once the references are shifted toward the drifted
// distributions. The shift that minimises the raw error count is
// predictable from the error climate (wear and retention age), which is
// what lets a controller cache calibrated offsets instead of blindly
// walking the ladder.
//
// Both fidelity layers participate:
//
//   - PageSim.ReadLevelsInto takes a ReadOffsets triple and classifies
//     against the shifted references — the Monte-Carlo ground truth;
//   - the analytic device path uses RecoveredRBER: an effective-RBER
//     model anchored so a fresh page gains nothing from the ladder while
//     an aged, retention-baked page recovers roughly an order of
//     magnitude at its optimal step.

// ReadOffsets shifts the three MLC read references R1-R3 by the given
// voltages (negative = toward the erased state, the direction retention
// drift requires). The zero value is the nominal read.
type ReadOffsets [3]float64

// OptimalRetryStep returns the ladder step whose reference shift best
// matches the V_TH drift a page has accumulated: the cycling drift the
// Age model already applies (AgingShift per decade of cycling) plus the
// retention drift (per decade of storage time, amplified by wear — aged
// oxide leaks faster), less the slack the fresh read margins absorb,
// divided by the per-step reference shift and clamped to the calibrated
// ladder. Fresh pages sit at step 0: there is nothing to recover.
func (c Calibration) OptimalRetryStep(s StressConfig, cycles, retentionHours float64) int {
	if s.RetryStepV <= 0 {
		return 0
	}
	if retentionHours < 0 {
		retentionHours = 0
	}
	aged := c.Age(cycles)
	shift := aged.RetShift +
		s.RetryShiftV*math.Log10(1+retentionHours/s.RetentionRefHours)*(1+aged.Wear) -
		s.RetrySlackV
	if shift <= 0 {
		return 0
	}
	k := int(shift/s.RetryStepV + 0.5)
	if k > s.RetrySteps {
		k = s.RetrySteps
	}
	return k
}

// RecoveredRBER is the effective raw bit error rate of a read at retry
// ladder step k. Step 0 reproduces StressedRBER exactly. For k > 0 the
// retention-driven component of the RBER (the part a reference shift can
// compensate) decays by RetryResidual per step matched to the page's
// optimal offset, floored at RetryFloorFrac of the raw rate (reference
// calibration cannot beat the cycling noise floor by more than about an
// order of magnitude); steps past the optimum over-shift the references
// and grow the error rate again by RetryOvershoot per excess step — a
// mis-predicted offset is worse than the nominal read, which is what
// makes the controller's calibration cache worth maintaining.
func (c Calibration) RecoveredRBER(s StressConfig, alg Algorithm, cycles, reads, retentionHours float64, step int) float64 {
	raw := c.StressedRBER(s, alg, cycles, reads, retentionHours)
	if step <= 0 {
		return raw
	}
	if step > s.RetrySteps {
		step = s.RetrySteps
	}
	if retentionHours < 0 {
		retentionHours = 0
	}
	if reads < 0 {
		reads = 0
	}
	// Irreducible part: the non-drift share of the cycling and disturb
	// errors (injection granularity, erratic cells, sensing noise) plus
	// SEUs. The drift-driven share — retention leakage and the cycling
	// RetShift the Age model applies — is what a matched reference
	// shift removes.
	disturb := s.ReadDisturbCoef * math.Log10(1+reads/s.ReadDisturbRef)
	irreducible := c.RBER(alg, cycles)*(1+disturb)*(1-s.RetryCyclingRecoverable) +
		s.SEUPerBitHour*retentionHours
	if irreducible > raw {
		irreducible = raw
	}
	kOpt := c.OptimalRetryStep(s, cycles, retentionHours)
	matched := step
	if matched > kOpt {
		matched = kOpt
	}
	eff := irreducible + (raw-irreducible)*math.Pow(s.RetryResidual, float64(matched))
	if floor := raw * s.RetryFloorFrac; eff < floor {
		eff = floor
	}
	if over := step - kOpt; over > 0 {
		eff *= math.Pow(s.RetryOvershoot, float64(over))
	}
	return math.Min(eff, c.RBERCeiling)
}
