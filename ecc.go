package xlnand

import (
	"xlnand/internal/bch"
)

// Codec is the adaptive BCH codec (paper §4): one hardware block whose
// correction capability is selectable at runtime. It is exposed directly
// because it is useful standalone — the bch subcommand of cmd/xlnand
// drives real data through it.
type Codec = bch.Codec

// NewPageCodec builds the paper's 4 KB-page codec: GF(2^16), k = 32768
// bits, t programmable in [3, 65].
func NewPageCodec() (*Codec, error) { return bch.NewPageCodec() }

// NewCodec builds an adaptive BCH codec with custom geometry: GF(2^m),
// k message bits, capability range [tmin, tmax]. k + m·tmax must fit
// 2^m - 1.
func NewCodec(m, k, tmin, tmax int) (*Codec, error) { return bch.NewCodec(m, k, tmin, tmax) }

// UncorrectableBCH is the sentinel returned by Codec.Decode on
// uncorrectable patterns.
var UncorrectableBCH = bch.ErrUncorrectable

// UBER computes the paper's Eq. (1): the post-correction error rate of a
// BCH[n = k + m·t] code at the given raw bit error rate, dominated by the
// weight-(t+1) failure. Valid in the sparse regime n·RBER < t+1.
func UBER(n, t int, rber float64) float64 { return bch.UBER(n, t, rber) }

// UBERTail accumulates the full uncorrectable tail (>= t+1 errors); it is
// monotone everywhere and upper-bounds Eq. (1).
func UBERTail(n, t int, rber float64) float64 { return bch.UBERTail(n, t, rber) }

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
	return DefaultEnv().Cal.RBER(alg, cycles)
}
