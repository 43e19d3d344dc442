package bch

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"xlnand/internal/ecc"
	"xlnand/internal/gf"
)

// Codec is the adaptive BCH codec of paper §4: a single hardware block
// whose correction capability t is selectable at runtime through a
// dedicated input port, in the range [TMin, TMax], priced by its
// micro-architectural timing model. It implements ecc.Codec directly:
// the capability level IS the correction capability t. Codes for every
// t share one Galois field, one minimal-polynomial table and one
// syndrome calculator; per-t state (generator polynomial, division
// tables) is built lazily on first use — the software analogue of the
// characteristic-polynomial ROM feeding the programmable LFSR.
// Everything immutable and large — the field, the syndrome tables, each
// capability's division tables — is shared with every other live Codec
// of the same geometry (a fleet's drives); only the scratch free lists
// are per Codec.
//
// Codec is safe for concurrent use and, past first use of a capability,
// lock-free: each t's code, encoder and decoder are built together into
// one atomic slot, so dies hammering the shared codec never serialise on
// a codec-level mutex. The construction mutex is only taken the first
// time a capability is touched; it also guards the shared
// minimal-polynomial table, which code construction extends.
type Codec struct {
	M    int // field degree
	K    int // protected message bits per codeword
	TMin int
	TMax int

	hw    HWConfig
	field *gf.Field
	mpt   *gf.MinPolyTable
	syn   *SyndromeCalc

	mu   sync.Mutex // serialises slot construction only
	caps []atomic.Pointer[capability]
}

// capability is one t's machinery, published whole.
type capability struct {
	code *Code
	enc  *Encoder
	dec  *Decoder
}

// PageCodecParams returns the paper's instantiation: GF(2^16), k = 4 KB
// page = 32768 bits, t programmable in [3, 65].
func PageCodecParams() (m, k, tmin, tmax int) { return 16, 32768, 3, 65 }

// NewCodec constructs an adaptive codec timed by hw. It validates that
// the largest capability still fits the field: k + m·tmax <= 2^m - 1.
func NewCodec(m, k, tmin, tmax int, hw HWConfig) (*Codec, error) {
	if tmin < 1 || tmin > tmax {
		return nil, fmt.Errorf("bch: invalid capability range [%d, %d]", tmin, tmax)
	}
	if err := (Params{M: m, K: k, T: tmax}).Validate(); err != nil {
		return nil, err
	}
	f := gf.NewField(m)
	return &Codec{
		M: m, K: k, TMin: tmin, TMax: tmax,
		hw:    hw,
		field: f,
		mpt:   gf.MinPolyCache(f),
		syn:   NewSyndromeCalc(f),
		caps:  make([]atomic.Pointer[capability], tmax-tmin+1),
	}, nil
}

// NewPageCodec builds the paper's 4 KB-page codec (t in [3, 65]) with
// the default hardware model.
func NewPageCodec() (*Codec, error) {
	m, k, tmin, tmax := PageCodecParams()
	return NewCodec(m, k, tmin, tmax, DefaultHWConfig())
}

// at returns (building if needed) the machinery of capability t.
func (c *Codec) at(t int) (*capability, error) {
	if t < c.TMin || t > c.TMax {
		return nil, fmt.Errorf("bch: t=%d outside supported range [%d, %d]", t, c.TMin, c.TMax)
	}
	slot := &c.caps[t-c.TMin]
	if cp := slot.Load(); cp != nil {
		return cp, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cp := slot.Load(); cp != nil {
		return cp, nil
	}
	code, err := newCodeWith(Params{M: c.M, K: c.K, T: t}, c.field, c.mpt)
	if err != nil {
		return nil, err
	}
	cp := &capability{code: code, enc: NewEncoder(code), dec: NewDecoder(code, c.syn)}
	slot.Store(cp)
	return cp, nil
}

// Code returns (building if needed) the code instance for capability t.
func (c *Codec) Code(t int) (*Code, error) {
	cp, err := c.at(t)
	if err != nil {
		return nil, err
	}
	return cp.code, nil
}

// Family implements ecc.Codec.
func (c *Codec) Family() ecc.Family { return ecc.FamilyBCH }

// DataBits implements ecc.Codec.
func (c *Codec) DataBits() int { return c.K }

// MinLevel implements ecc.Codec.
func (c *Codec) MinLevel() int { return c.TMin }

// MaxLevel implements ecc.Codec.
func (c *Codec) MaxLevel() int { return c.TMax }

// ClampLevel implements ecc.Codec: it clips a requested capability into
// the supported range, mirroring the controller behaviour of
// instantiating the worst-case architecture and refusing configurations
// outside it.
func (c *Codec) ClampLevel(t int) int { return min(max(t, c.TMin), c.TMax) }

// ParityBytes implements ecc.Codec: the spare-area bytes consumed at
// capability t. The BCH geometry r = m·t makes it strictly monotone.
func (c *Codec) ParityBytes(t int) (int, error) {
	code, err := c.Code(t)
	if err != nil {
		return 0, err
	}
	return (code.GenDegree + 7) / 8, nil
}

// LevelForSpare implements ecc.Codec: t = spare·8 / m, cross-checked
// against the exact parity footprint so a corrupt geometry is rejected
// rather than guessed at.
func (c *Codec) LevelForSpare(spareBytes int) (int, error) {
	t := spareBytes * 8 / c.M
	pb, err := c.ParityBytes(t)
	if err != nil || pb != spareBytes {
		return 0, fmt.Errorf("bch: spare %d bytes maps to no capability", spareBytes)
	}
	return t, nil
}

// CodewordBits implements ecc.Codec.
func (c *Codec) CodewordBits(t int) (int, error) {
	code, err := c.Code(t)
	if err != nil {
		return 0, err
	}
	return code.CodewordBits(), nil
}

// CorrectionCap implements ecc.Codec: bounded-distance decoding corrects
// exactly t errors.
func (c *Codec) CorrectionCap(t int) int { return c.ClampLevel(t) }

// EncodeInto implements ecc.Codec: it computes the parity block for msg
// at capability t into parity (exactly ParityBytes(t) bytes). It is the
// allocation-free steady-state write path.
func (c *Codec) EncodeInto(t int, parity, msg []byte) error {
	cp, err := c.at(t)
	if err != nil {
		return err
	}
	return cp.enc.EncodeInto(parity, msg)
}

// EncodeCodeword returns msg ++ parity at capability t.
func (c *Codec) EncodeCodeword(t int, msg []byte) ([]byte, error) {
	cp, err := c.at(t)
	if err != nil {
		return nil, err
	}
	return cp.enc.EncodeCodeword(msg)
}

// Decode implements ecc.Codec: it corrects codeword in place at
// capability t, returning the number of corrected bit errors or
// ErrUncorrectable.
func (c *Codec) Decode(t int, codeword []byte) (int, error) {
	cp, err := c.at(t)
	if err != nil {
		return 0, err
	}
	return cp.dec.Decode(codeword)
}

// DecodeSensed implements ecc.Codec: Decode at capability t for a
// codeword this codec encoded at t with exactly the bit positions in
// flips inverted, taking the syndromes from the positions alone; see
// Decoder.DecodeSensed.
func (c *Codec) DecodeSensed(t int, codeword []byte, flips []int) (int, error) {
	cp, err := c.at(t)
	if err != nil {
		return 0, err
	}
	return cp.dec.DecodeSensed(codeword, flips)
}

// DecodeSoft implements ecc.Codec: the algebraic decoder is hard-input
// only (a Chase-style soft wrapper is possible but not modelled).
func (c *Codec) DecodeSoft(t int, codeword []byte, llr []int8) (int, error) {
	return 0, ecc.ErrNoSoftPath
}

// SupportsSoft implements ecc.Codec.
func (c *Codec) SupportsSoft() bool { return false }

// RequiredLevel implements ecc.Codec, mirroring the nominal-schedule
// solver (§6.2): the minimal t whose full uncorrectable tail meets the
// target, clamped up to TMin.
func (c *Codec) RequiredLevel(rber, targetUBER float64) (int, error) {
	t, err := RequiredT(c.M, c.K, rber, targetUBER, c.TMax)
	if err != nil {
		return 0, err
	}
	return max(t, c.TMin), nil
}

// ProjectedUBER implements ecc.Codec (Eq. 1's tail-accumulated form).
func (c *Codec) ProjectedUBER(t int, rber float64) float64 {
	return math.Exp(LogUBERTail(c.K+c.M*t, t, rber))
}

// EncodeLatency implements ecc.Codec; BCH encoding is independent of t
// (paper §4).
func (c *Codec) EncodeLatency(t int) time.Duration { return c.hw.EncodeLatency(c.K) }

// DecodeLatency implements ecc.Codec.
func (c *Codec) DecodeLatency(t int, clean bool) time.Duration {
	n := c.K + c.M*t
	if clean {
		return c.hw.DecodeCleanLatency(n, t)
	}
	return c.hw.DecodeLatency(n, t)
}

// MeasuredDecodeLatency implements ecc.Codec. The hardware block's
// decode cost does not depend on the error weight beyond whether the
// syndromes are all zero, so it is the flat DecodeLatency.
func (c *Codec) MeasuredDecodeLatency(t, nErr int) time.Duration {
	return c.DecodeLatency(t, nErr == 0)
}

// SoftDecodeLatency implements ecc.Codec (no soft path).
func (c *Codec) SoftDecodeLatency(t int) time.Duration { return 0 }

var _ ecc.Codec = (*Codec)(nil)
