package nand

import "math"

// AgedParams holds the device variability parameters scaled to a given
// number of program/erase cycles. Repeated cycling degrades the tunnel
// oxide (trap generation), which the compact model expresses as growth of
// the per-pulse injection noise, broadening of the erased distribution,
// a retention-like downward shift of programmed levels and a one-sided
// "slow cell" tail on the gate-coupling offset (paper §5.1, "aging
// effects due to repeated Program/Erase cycling which typically degrades
// the RBER").
type AgedParams struct {
	Cycles float64 // program/erase cycles N

	Wear       float64 // dimensionless wear index
	KSlowTail  float64 // one-sided slow-cell tail sigma [V]
	InjSigma   float64 // per-pulse injection-granularity noise [V]
	EraseSigma float64 // erased-distribution spread [V]
	RetShift   float64 // downward shift of programmed levels at read [V]
	ReadNoise  float64 // sensing noise [V]
}

// Age scales the calibration's fresh variability parameters to N cycles.
// Wear grows as a sub-linear power law (trap generation saturates);
// the retention shift grows per decade of cycling.
func (c Calibration) Age(cycles float64) AgedParams {
	if cycles < 0 {
		cycles = 0
	}
	wear := c.AgingSigmaCoef * math.Pow(cycles, c.AgingSigmaExp)
	decades := math.Log10(1 + cycles)
	return AgedParams{
		Cycles:     cycles,
		Wear:       wear,
		KSlowTail:  c.AgingSlowTail * decades,
		InjSigma:   c.InjectionSigma * (1 + wear),
		EraseSigma: c.EraseSigma * (1 + 0.3*wear),
		RetShift:   c.AgingShift * decades,
		ReadNoise:  c.ReadNoiseSigma,
	}
}
