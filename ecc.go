package xlnand

import (
	"xlnand/internal/bch"
	"xlnand/internal/sim"
)

// Codec is the adaptive BCH codec (paper §4): one hardware block whose
// correction capability is selectable at runtime, carrying its own
// latency model — the same type the controller programs against through
// the family-generic codec contract. It is exposed directly because it
// is useful standalone — the bch subcommand of cmd/xlnand drives real
// data through it.
type Codec = bch.Codec

// NewPageCodec builds the paper's 4 KB-page codec: GF(2^16), k = 32768
// bits, t programmable in [3, 65].
func NewPageCodec() (*Codec, error) { return bch.NewPageCodec() }

// RequiredT returns the minimum correction capability achieving the UBER
// target at the given raw bit error rate for a code over GF(2^m)
// protecting k bits.
func RequiredT(m, k int, rber, target float64, tmax int) (int, error) {
	return bch.RequiredT(m, k, rber, target, tmax)
}

// RBER returns the calibrated lifetime raw bit error rate of the modelled
// device for the given program algorithm and program/erase cycle count
// (the reproduction of paper Fig. 5).
func RBER(alg Algorithm, cycles float64) float64 {
	return sim.DefaultEnv().Cal.RBER(alg, cycles)
}
