package xlnand

import "xlnand/internal/sim"

// DieScaling reports the throughput of an interleaved multi-die
// organisation behind one controller, with the shared bus and codec
// serialising (see internal/sim for the pipeline model).
type DieScaling = sim.DieScaling

// ScaleDies evaluates a service level's sustained throughput for a die
// count at the given wear.
func (s *Subsystem) ScaleDies(m Mode, cycles float64, dies int) (DieScaling, error) {
	return s.env.ScaleDies(m, cycles, dies)
}
