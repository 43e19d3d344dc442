package xlnand

import (
	"xlnand/internal/sim"
)

// OperatingPoint is one evaluated cross-layer configuration: algorithm,
// capability, wear, and the resulting UBER, latencies, throughputs and
// power (paper §6.3's metric set).
type OperatingPoint = sim.OperatingPoint

// EvaluateMode computes the metrics of a service level at the given wear.
func (s *Subsystem) EvaluateMode(m Mode, cycles float64) (OperatingPoint, error) {
	return s.env.EvaluateMode(m, cycles)
}

// RequiredT returns the minimum ECC capability holding the sub-system's
// UBER target for the given algorithm and wear — the t-schedule of paper
// §6.2.
func (s *Subsystem) RequiredT(alg Algorithm, cycles float64) int {
	return s.env.RequiredT(alg, cycles)
}

// ExploreOperatingPoints evaluates the (algorithm × capability) grid at
// one wear level; tStride thins the capability axis.
func (s *Subsystem) ExploreOperatingPoints(cycles float64, tStride int) ([]OperatingPoint, error) {
	return s.env.ExplorePoints(cycles, tStride)
}

// ParetoFront filters operating points to the non-dominated set over
// (UBER, read throughput, write throughput, power).
func ParetoFront(points []OperatingPoint) []OperatingPoint {
	return sim.ParetoFront(points)
}

// LifetimePoint pairs a wear level with the metrics of every mode.
type LifetimePoint struct {
	Cycles  float64
	Nominal OperatingPoint
	MinUBER OperatingPoint
	MaxRead OperatingPoint
}

// LifetimeSweep evaluates the three service levels across a wear grid —
// the computation behind Figs. 8-11.
func (s *Subsystem) LifetimeSweep(cycleGrid []float64) ([]LifetimePoint, error) {
	out := make([]LifetimePoint, 0, len(cycleGrid))
	for _, n := range cycleGrid {
		nom, err := s.env.EvaluateMode(sim.ModeNominal, n)
		if err != nil {
			return nil, err
		}
		minU, err := s.env.EvaluateMode(sim.ModeMinUBER, n)
		if err != nil {
			return nil, err
		}
		maxR, err := s.env.EvaluateMode(sim.ModeMaxRead, n)
		if err != nil {
			return nil, err
		}
		out = append(out, LifetimePoint{Cycles: n, Nominal: nom, MinUBER: minU, MaxRead: maxR})
	}
	return out, nil
}
