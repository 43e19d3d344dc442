// Package nand models the 2-bit/cell (4LC) NAND flash device of paper §5:
// the threshold-voltage (V_TH) compact model with nanoscale variability,
// the incremental step pulse programming engine in both its single-verify
// (ISPP-SV) and double-verify (ISPP-DV) variants, page read with the
// R1-R3 levels and Gray mapping, block erase, and program/erase-cycling
// aging. It exposes two fidelity layers:
//
//   - an analytic lifetime RBER model calibrated to the paper's Fig. 5
//     (fast; drives the controller simulator and Figs. 7-11), and
//   - a Monte-Carlo cell-array simulator that programs every cell through
//     the actual ISPP pulse train (drives Fig. 4, write-time/pulse
//     accounting for Figs. 6 and 9, and validates the analytic model's
//     shape at measurable corners).
//
// All fitted constants live in Calibration so that every figure flows
// from one table (DESIGN.md §4).
package nand

import "time"

// Algorithm selects the program algorithm of the physical layer — the
// paper's runtime-selectable knob (§5).
type Algorithm int

const (
	// ISPPSV is the standard single-verify incremental step pulse
	// programming algorithm: one verify per target level per pulse.
	ISPPSV Algorithm = iota
	// ISPPDV is the double-verify variant of Miccoli et al. [19]: a
	// pre-verify at a slightly lower voltage modulates the bit-line so
	// the final approach uses a reduced effective step, compacting the
	// programmed distribution at the cost of extra verify time.
	ISPPDV
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case ISPPSV:
		return "ISPP-SV"
	case ISPPDV:
		return "ISPP-DV"
	default:
		return "ISPP-?"
	}
}

// Calibration gathers every fitted constant of the device model. The
// defaults reproduce the paper's anchors; experiments mutate copies to
// run ablations.
type Calibration struct {
	// --- ISPP waveform (paper §5.1: 14->19 V, 250 mV steps) ---
	VStart    float64       // first program pulse amplitude [V]
	VEnd      float64       // charge-pump ceiling [V]
	DeltaISPP float64       // nominal program step [V]
	TPulse    time.Duration // program pulse width
	TVerify   time.Duration // one verify (read) operation
	TEraseOp  time.Duration // block erase duration
	TLoad     time.Duration // page-buffer data load (full-sequence strategy)

	// --- MLC level placement (V) ---
	EraseMu    float64    // L0 mean
	EraseSigma float64    // L0 spread (fresh)
	VFY        [3]float64 // verify levels for L1..L3
	Read       [3]float64 // read levels R1..R3
	OverProg   float64    // over-programming limit OP

	// --- DV specifics ---
	DVPreOffset  float64 // pre-verify level below final VFY [V]
	DVStepFactor float64 // effective step multiplier after pre-verify pass
	// DVAgingTimeCoef scales how strongly wear lengthens the DV fine
	// phase (noisier cells dither longer around the pre-verify level);
	// drives the 40% -> 48% write-loss growth of Fig. 9.
	DVAgingTimeCoef float64

	// --- Cell variability (fresh device, paper §5.1 list) ---
	KOffsetMu      float64 // mean gate-coupling offset: VTH ~ VCG - K
	KOffsetSigma   float64 // cell-to-cell K spread (geometry, doping, oxide)
	InjectionSigma float64 // per-pulse electron-injection granularity noise [V]
	CCICoupling    float64 // cell-to-cell interference coupling ratio
	ReadNoiseSigma float64 // read comparator + VTH sensing noise [V]

	// --- Aging (program/erase cycling, paper §5.1 "aging effects") ---
	AgingSigmaCoef float64 // multiplicative VTH-spread growth coefficient
	AgingSigmaExp  float64 // exponent of spread growth in cycles
	AgingShift     float64 // retention-like downward shift per decade [V]
	AgingSlowTail  float64 // growth of the slow-cell K tail [V/decade]

	// --- Lifetime RBER model (fit to Fig. 5) ---
	RBERFresh   float64 // SV raw bit error rate at/below RefCycles
	RBERRefCyc  float64 // cycles below which RBER is flat
	RBERExp     float64 // power-law exponent of RBER growth
	DVGain      float64 // SV/DV RBER ratio ("one order of magnitude")
	RBERCeiling float64 // physical ceiling for the model

	// --- Geometry ---
	PageDataBytes  int // user data per page (4 KB)
	PageSpareBytes int // spare area per page
	PagesPerBlock  int
}

// DefaultCalibration returns the constants used throughout the paper
// reproduction (DESIGN.md §4 records the provenance of each value).
func DefaultCalibration() Calibration {
	return Calibration{
		VStart:    14.0,
		VEnd:      19.0,
		DeltaISPP: 0.25,
		TPulse:    25 * time.Microsecond,
		TVerify:   15 * time.Microsecond,
		TEraseOp:  1500 * time.Microsecond,
		TLoad:     50 * time.Microsecond,

		EraseMu:    -3.0,
		EraseSigma: 0.35,
		VFY:        [3]float64{0.8, 1.9, 3.0},
		Read:       [3]float64{0.15, 1.35, 2.45},
		OverProg:   3.9,

		DVPreOffset:     0.30,
		DVStepFactor:    0.50,
		DVAgingTimeCoef: 1.20,

		KOffsetMu:      13.8,
		KOffsetSigma:   0.15,
		InjectionSigma: 0.035,
		CCICoupling:    0.06,
		ReadNoiseSigma: 0.02,

		AgingSigmaCoef: 0.020,
		AgingSigmaExp:  0.32,
		AgingShift:     0.020,
		AgingSlowTail:  0.050,

		RBERFresh:   1e-6,
		RBERRefCyc:  100,
		RBERExp:     0.75,
		DVGain:      11.9,
		RBERCeiling: 5e-2,

		PageDataBytes:  4096,
		PageSpareBytes: 224,
		PagesPerBlock:  64,
	}
}

// PageDataBits returns the protected payload size in bits (the BCH k).
func (c Calibration) PageDataBits() int { return c.PageDataBytes * 8 }

// MaxPulses returns the pulse budget of one program operation: the pump
// ramps from VStart to VEnd in DeltaISPP steps, after which the operation
// fails for still-unverified cells.
func (c Calibration) MaxPulses() int {
	return int((c.VEnd-c.VStart)/c.DeltaISPP+0.5) + 1
}
