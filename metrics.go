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

// ParetoFront filters operating points to the non-dominated set over
// (UBER, read throughput, write throughput, power).
func ParetoFront(points []OperatingPoint) []OperatingPoint {
	return sim.ParetoFront(points)
}
