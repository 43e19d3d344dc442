package bch

import (
	"fmt"
	"math"
	"time"

	"xlnand/internal/ecc"
)

// HWCodec binds the adaptive BCH codec to its micro-architectural timing
// model, satisfying the family-generic ecc.Codec interface the controller
// programs against. The capability level IS the correction capability t;
// everything else delegates to the underlying Codec and HWConfig.
type HWCodec struct {
	C  *Codec
	HW HWConfig
}

// NewHWCodec wraps codec with the latency model hw.
func NewHWCodec(c *Codec, hw HWConfig) *HWCodec { return &HWCodec{C: c, HW: hw} }

// Family implements ecc.Codec.
func (h *HWCodec) Family() ecc.Family { return ecc.FamilyBCH }

// DataBits implements ecc.Codec.
func (h *HWCodec) DataBits() int { return h.C.K }

// MinLevel implements ecc.Codec.
func (h *HWCodec) MinLevel() int { return h.C.TMin }

// MaxLevel implements ecc.Codec.
func (h *HWCodec) MaxLevel() int { return h.C.TMax }

// ClampLevel implements ecc.Codec.
func (h *HWCodec) ClampLevel(level int) int { return h.C.ClampT(level) }

// ParityBytes implements ecc.Codec; the BCH geometry r = m·t makes it
// strictly monotone in t.
func (h *HWCodec) ParityBytes(level int) (int, error) { return h.C.ParityBytes(level) }

// LevelForSpare implements ecc.Codec: t = spare·8 / m, cross-checked
// against the exact parity footprint so a corrupt geometry is rejected
// rather than guessed at.
func (h *HWCodec) LevelForSpare(spareBytes int) (int, error) {
	t := spareBytes * 8 / h.C.M
	pb, err := h.C.ParityBytes(t)
	if err != nil || pb != spareBytes {
		return 0, fmt.Errorf("bch: spare %d bytes maps to no capability", spareBytes)
	}
	return t, nil
}

// CodewordBits implements ecc.Codec.
func (h *HWCodec) CodewordBits(level int) (int, error) {
	code, err := h.C.Code(level)
	if err != nil {
		return 0, err
	}
	return code.CodewordBits(), nil
}

// CorrectionCap implements ecc.Codec: bounded-distance decoding corrects
// exactly t errors.
func (h *HWCodec) CorrectionCap(level int) int { return h.C.ClampT(level) }

// EncodeInto implements ecc.Codec.
func (h *HWCodec) EncodeInto(level int, parity, msg []byte) error {
	return h.C.EncodeInto(level, parity, msg)
}

// Decode implements ecc.Codec.
func (h *HWCodec) Decode(level int, codeword []byte) (int, error) {
	return h.C.Decode(level, codeword)
}

// DecodeSensed implements ecc.SensedDecoder.
func (h *HWCodec) DecodeSensed(level int, codeword []byte, flips []int) (int, error) {
	return h.C.DecodeSensed(level, codeword, flips)
}

// DecodeSoft implements ecc.Codec: the algebraic decoder is hard-input
// only (a Chase-style soft wrapper is possible but not modelled).
func (h *HWCodec) DecodeSoft(level int, codeword []byte, llr []int8) (int, error) {
	return 0, ecc.ErrNoSoftPath
}

// SupportsSoft implements ecc.Codec.
func (h *HWCodec) SupportsSoft() bool { return false }

// RequiredLevel implements ecc.Codec, mirroring the nominal-schedule
// solver (§6.2): the minimal t whose full uncorrectable tail meets the
// target, clamped up to TMin.
func (h *HWCodec) RequiredLevel(rber, targetUBER float64) (int, error) {
	t, err := RequiredT(h.C.M, h.C.K, rber, targetUBER, h.C.TMax)
	if err != nil {
		return 0, err
	}
	if t < h.C.TMin {
		t = h.C.TMin
	}
	return t, nil
}

// ProjectedUBER implements ecc.Codec (Eq. 1's tail-accumulated form).
func (h *HWCodec) ProjectedUBER(level int, rber float64) float64 {
	n := h.C.K + h.C.M*level
	return math.Exp(LogUBERTail(n, level, rber))
}

// EncodeLatency implements ecc.Codec; BCH encoding is independent of t
// (paper §4).
func (h *HWCodec) EncodeLatency(level int) time.Duration {
	return h.HW.EncodeLatency(h.C.K)
}

// DecodeLatency implements ecc.Codec.
func (h *HWCodec) DecodeLatency(level int, clean bool) time.Duration {
	n := h.C.K + h.C.M*level
	if clean {
		return h.HW.DecodeCleanLatency(n, level)
	}
	return h.HW.DecodeLatency(n, level)
}

// SoftDecodeLatency implements ecc.Codec (no soft path).
func (h *HWCodec) SoftDecodeLatency(level int) time.Duration { return 0 }

var (
	_ ecc.Codec         = (*HWCodec)(nil)
	_ ecc.SensedDecoder = (*HWCodec)(nil)
)
