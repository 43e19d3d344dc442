package nand

import "math"

// StressConfig extends the cycling-driven RBER model with the other
// failure mechanisms the paper's introduction lists: program/read
// disturb, data retention and single-event upsets. Cycling remains the
// dominant axis (it is what the paper's evaluation sweeps); these terms
// let lifetime studies include the secondary stresses.
type StressConfig struct {
	// ReadDisturbCoef is the fractional RBER growth per decade of reads
	// accumulated in a block since its last erase (pass-voltage stress
	// on unselected wordlines).
	ReadDisturbCoef float64
	// ReadDisturbRef is the read count where disturb becomes measurable.
	ReadDisturbRef float64
	// RetentionCoef is the fractional RBER growth per decade of
	// retention time (charge detrapping/leakage); wear multiplies it
	// (aged oxide leaks faster).
	RetentionCoef float64
	// RetentionRefHours is the bake time where retention loss becomes
	// measurable on a fresh device.
	RetentionRefHours float64
	// SEUPerBitHour is the random single-event-upset rate (radiation),
	// an additive floor independent of wear.
	SEUPerBitHour float64

	// --- Staged read-retry (read-reference calibration) ---

	// RetrySteps is the calibrated ladder depth the device supports:
	// reads may be retried at reference offsets 1..RetrySteps.
	RetrySteps int
	// RetryStepV is the reference shift of one ladder step at the R1
	// boundary [V].
	RetryStepV float64
	// RetryShiftV is the modelled retention drift per decade of storage
	// time on a fresh device [V]; wear multiplies it. Together with the
	// calibration's cycling drift (AgingShift) it sets the optimal
	// ladder step for a page's (wear, retention) climate.
	RetryShiftV float64
	// RetrySlackV is the drift the fresh read margins absorb before any
	// reference shift pays off [V]: fresh pages have an optimal step of
	// zero.
	RetrySlackV float64
	// RetryCyclingRecoverable is the drift-driven share of the cycling
	// (+ disturb) RBER: the part a matched reference shift can remove.
	// The remainder — injection noise, erratic cells, sensing noise —
	// is the ladder's irreducible floor.
	RetryCyclingRecoverable float64
	// RetryResidual is the fraction of the recoverable (retention-
	// driven) RBER remaining after each matched ladder step.
	RetryResidual float64
	// RetryFloorFrac floors the recovered RBER at this fraction of the
	// raw rate: calibration buys about an order of magnitude, not more.
	RetryFloorFrac float64
	// RetryOvershoot grows the RBER per step past the optimal offset
	// (over-shifted references misclassify cells the other way).
	RetryOvershoot float64

	// --- Soft-sense reads (multi-sense per-bit confidence) ---

	// SoftSenses is the number of component array senses one soft read
	// performs: the center sense at the requested ladder step plus
	// adjacent-reference senses bracketing each read boundary. Every
	// component sense pays one tR and one read-disturb count.
	SoftSenses int
	// SoftCapture is the probability that a cell misread by the center
	// sense lands between the bracketing references — i.e. is flagged
	// low-confidence. Cells whose V_TH drifted across a read boundary
	// sit near it, so most raw errors are captured (Cai et al.'s
	// retention-failure characterisation).
	SoftCapture float64
	// SoftFalseWeak is the probability that a correctly-read cell is
	// flagged low-confidence anyway (cells legitimately near a
	// boundary).
	SoftFalseWeak float64
	// SoftSensesMax caps adaptive soft-sense escalation: a controller
	// may widen a failing soft read from SoftSenses component senses up
	// to this many (3→5→7 with the defaults), each escalation paying
	// its own sensing time and disturb stress. 0 disables escalation
	// (every soft read stays at SoftSenses).
	SoftSensesMax int
}

// DefaultStressConfig returns stress constants in the ranges reported by
// the paper's references ([3] Mielke et al. for disturb/retention trends,
// [6] Irom & Nguyen for SEU).
func DefaultStressConfig() StressConfig {
	return StressConfig{
		ReadDisturbCoef:   0.18,
		ReadDisturbRef:    1e4,
		RetentionCoef:     0.45,
		RetentionRefHours: 500,
		SEUPerBitHour:     1e-13,

		RetrySteps:              6,
		RetryStepV:              0.04,
		RetryShiftV:             0.12,
		RetrySlackV:             0.05,
		RetryCyclingRecoverable: 0.85,
		RetryResidual:           0.35,
		RetryFloorFrac:          0.08,
		RetryOvershoot:          1.15,

		SoftSenses:    3,
		SoftCapture:   0.92,
		SoftFalseWeak: 0.015,
		SoftSensesMax: 7,
	}
}

// StressedRBER composes the cycling RBER with read-disturb, retention and
// SEU contributions:
//
//	RBER = RBER_cyc(alg, N) · (1 + disturb(reads)) · (1 + retention(t, N)) + SEU·t
//
// reads is the block's read count since the last erase; retentionHours is
// the time the data has been stored. The result is clamped to the
// physical ceiling.
func (c Calibration) StressedRBER(s StressConfig, alg Algorithm, cycles, reads, retentionHours float64) float64 {
	base := c.RBER(alg, cycles)
	if reads < 0 {
		reads = 0
	}
	if retentionHours < 0 {
		retentionHours = 0
	}
	disturb := s.ReadDisturbCoef * math.Log10(1+reads/s.ReadDisturbRef)
	wear := c.Age(cycles).Wear
	retention := s.RetentionCoef * math.Log10(1+retentionHours/s.RetentionRefHours) * (1 + wear)
	rber := base*(1+disturb)*(1+retention) + s.SEUPerBitHour*retentionHours
	return math.Min(rber, c.RBERCeiling)
}
