package ldpc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"xlnand/internal/ecc"
	"xlnand/internal/stats"
	"xlnand/internal/weakmap"
)

// HWConfig captures the micro-architectural parameters of the modelled
// min-sum decoder — a row-layered engine streaming check-node updates
// through parallel compare-select units — mirroring the way bch.HWConfig
// decouples architectural latency from software speed.
type HWConfig struct {
	// EdgeParallelism is the number of edge messages the check-node
	// pipeline absorbs per cycle.
	EdgeParallelism int
	// BitParallelism is the codeword bits per cycle of the syndrome /
	// hard-decision repack passes.
	BitParallelism int
	// AvgItersHard / AvgItersSoft are the modelled mean iteration counts
	// of a converging decode (hard input converges in fewer, better-
	// conditioned soft input pays more iterations for far more errors).
	AvgItersHard float64
	AvgItersSoft float64
	// PipelineFillCyc is the fixed fill/drain overhead per decode.
	PipelineFillCyc int
	// ClockHz is the decoder clock (the codec block's 80 MHz domain).
	ClockHz float64
}

// DefaultHWConfig returns the calibration the latency figures use:
// 64 edges/cycle, 128 bits/cycle, 80 MHz — sized so the LDPC hard
// decode lands in the same band as the worst-case BCH decode while the
// soft decode visibly pays for its extra iterations.
func DefaultHWConfig() HWConfig {
	return HWConfig{
		EdgeParallelism: 64,
		BitParallelism:  128,
		AvgItersHard:    8,
		AvgItersSoft:    14,
		PipelineFillCyc: 32,
		ClockHz:         80e6,
	}
}

// Codec is the adaptive rate-compatible LDPC codec: one engine whose
// capability level (rate index) is selectable at runtime. Each level's
// decoder, which holds the level's code, is built lazily into one
// atomic slot, so dies hammering the shared codec never serialise on a
// mutex — the same concurrency contract as the BCH codec, and the same
// sharing: a level's code structure (~530 KB) is immutable and common
// to every live Codec of the geometry; decoders and their scratch are
// not. The measured latency tables are committed data, read-only from
// construction on.
type Codec struct {
	p  Params
	hw HWConfig

	mu       sync.Mutex // serialises slot construction only
	decoders []atomic.Pointer[Decoder]
	// iters is the per-level iterations-to-converge table backing
	// MeasuredDecodeLatency: the committed page tables, or nil for a
	// geometry that has none.
	iters [][]float64
}

// NewCodec builds a codec from the parameter set.
func NewCodec(p Params, hw HWConfig) (*Codec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.ParityBits[len(p.ParityBits)-1]/Z > maxParityWords {
		return nil, fmt.Errorf("ldpc: deepest level needs %d parity words, max %d",
			p.ParityBits[len(p.ParityBits)-1]/Z, maxParityWords)
	}
	return &Codec{
		p:        p,
		hw:       hw,
		decoders: make([]atomic.Pointer[Decoder], len(p.ParityBits)),
		iters:    measuredIters(p),
	}, nil
}

// NewPageCodec builds the 4 KB-page codec (six rate levels, 72-224 B
// spare footprint including the embedded CRC) with the default hardware
// model.
func NewPageCodec() (*Codec, error) { return NewCodec(PageParams(), DefaultHWConfig()) }

// Family implements ecc.Codec.
func (c *Codec) Family() ecc.Family { return ecc.FamilyLDPC }

// DataBits implements ecc.Codec.
func (c *Codec) DataBits() int { return c.p.K }

// MinLevel implements ecc.Codec.
func (c *Codec) MinLevel() int { return 0 }

// MaxLevel implements ecc.Codec.
func (c *Codec) MaxLevel() int { return len(c.p.ParityBits) - 1 }

// ClampLevel implements ecc.Codec.
func (c *Codec) ClampLevel(level int) int {
	if level < 0 {
		return 0
	}
	if level > c.MaxLevel() {
		return c.MaxLevel()
	}
	return level
}

func (c *Codec) slot(level int) (int, error) {
	if level < 0 || level > c.MaxLevel() {
		return 0, fmt.Errorf("ldpc: level %d outside [0, %d]", level, c.MaxLevel())
	}
	return level, nil
}

// at returns (building if needed) the level's decoder; its code
// structure is d.c.
func (c *Codec) at(level int) (*Decoder, error) {
	i, err := c.slot(level)
	if err != nil {
		return nil, err
	}
	if d := c.decoders[i].Load(); d != nil {
		return d, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.decoders[i].Load(); d != nil {
		return d, nil
	}
	cd := sharedCodes.Get(codeKey{c.p.K, c.p.ParityBits[i], i}, func() *code { return buildCode(c.p, i) })
	d := newDecoder(cd)
	c.decoders[i].Store(d)
	return d, nil
}

// sharedCodes finds the live code structure of a level: everything
// buildCode reads of the parameter set is in the key. Weak, so a fleet
// of LDPC drives holds one copy per level in use and a process that is
// done with LDPC holds none.
var sharedCodes weakmap.Map[codeKey, code]

type codeKey struct{ k, parityBits, level int }

// ParityBytes implements ecc.Codec.
func (c *Codec) ParityBytes(level int) (int, error) {
	i, err := c.slot(level)
	if err != nil {
		return 0, err
	}
	return (crcBits + c.p.ParityBits[i]) / 8, nil
}

// LevelForSpare implements ecc.Codec: parity footprints are strictly
// ascending, so the stored spare length names its level exactly.
func (c *Codec) LevelForSpare(spareBytes int) (int, error) {
	for i, m := range c.p.ParityBits {
		if (crcBits+m)/8 == spareBytes {
			return i, nil
		}
	}
	return 0, fmt.Errorf("ldpc: spare %d bytes maps to no rate level", spareBytes)
}

// CodewordBits implements ecc.Codec.
func (c *Codec) CodewordBits(level int) (int, error) {
	i, err := c.slot(level)
	if err != nil {
		return 0, err
	}
	return c.p.K + crcBits + c.p.ParityBits[i], nil
}

// CorrectionCap implements ecc.Codec: the calibrated hard-input
// capability.
func (c *Codec) CorrectionCap(level int) int {
	return c.p.HardCap[c.ClampLevel(level)]
}

// SoftCorrectionCap is the calibrated soft-input capability of a level —
// the family-specific descriptor the experiments and the soft UBER
// model build on.
func (c *Codec) SoftCorrectionCap(level int) int {
	return c.p.SoftCap[c.ClampLevel(level)]
}

// EncodeInto implements ecc.Codec.
func (c *Codec) EncodeInto(level int, parity, msg []byte) error {
	d, err := c.at(level)
	if err != nil {
		return err
	}
	return d.c.encodeInto(parity, msg)
}

// Decode implements ecc.Codec: hard-input normalized min-sum.
func (c *Codec) Decode(level int, codeword []byte) (int, error) {
	d, err := c.at(level)
	if err != nil {
		return 0, err
	}
	if len(codeword)*8 != d.c.n {
		return 0, fmt.Errorf("ldpc: codeword %d bytes, level %d needs %d bits", len(codeword), level, d.c.n)
	}
	return d.decode(codeword, nil, maxIterHard, flipGuard(c.p.HardCap[d.c.level]))
}

// DecodeSensed implements ecc.Codec: min-sum gains nothing from the
// known flip positions, so it is Decode. It takes no bounded-distance
// shortcut either: min-sum is not a bounded-distance decoder (HardCap
// is a calibrated rating, not a distance bound), so nothing guarantees
// that a word within the cap of its codeword decodes back to it; only
// the decode itself says whether it does.
func (c *Codec) DecodeSensed(level int, codeword []byte, _ []int) (int, error) {
	return c.Decode(level, codeword)
}

// flipGuard is the accepted repair bound: 1.5x the calibrated cap.
// Rated repairs always pass; wildly outsized "convergences" are cut
// before the CRC pass even looks at them. The guard is a plausibility
// pre-filter — the embedded CRC64 is the authoritative miscorrection
// verdict — so it can afford headroom for beyond-rating rescues on the
// deep-retry path.
func flipGuard(cap int) int { return cap + cap/2 }

// DecodeSoft implements ecc.Codec: soft-input min-sum over the
// device-supplied per-bit confidence.
func (c *Codec) DecodeSoft(level int, codeword []byte, llr []int8) (int, error) {
	d, err := c.at(level)
	if err != nil {
		return 0, err
	}
	if len(codeword)*8 != d.c.n {
		return 0, fmt.Errorf("ldpc: codeword %d bytes, level %d needs %d bits", len(codeword), level, d.c.n)
	}
	if len(llr) < d.c.n {
		return 0, fmt.Errorf("ldpc: %d LLRs for a %d-bit codeword", len(llr), d.c.n)
	}
	return d.decode(codeword, llr[:d.c.n], maxIterSoft, flipGuard(c.p.SoftCap[d.c.level]))
}

// SupportsSoft implements ecc.Codec.
func (c *Codec) SupportsSoft() bool { return true }

// logUBER is the family's reliability model: the calibrated capability
// turns the iterative decoder into an effective bounded-distance code,
// and the post-correction rate is the binomial tail past it — the same
// shape the BCH model uses, with the cap measured instead of algebraic.
func (c *Codec) logUBER(level, cap int, rber float64) float64 {
	if rber <= 0 {
		return math.Inf(-1)
	}
	if rber >= 1 {
		rber = 1 - 1e-15
	}
	n := c.p.K + crcBits + c.p.ParityBits[level]
	return stats.LogBinomTail(n, cap+1, rber) - math.Log(float64(n))
}

// ProjectedUBER implements ecc.Codec (hard-decision path).
func (c *Codec) ProjectedUBER(level int, rber float64) float64 {
	i := c.ClampLevel(level)
	return math.Exp(c.logUBER(i, c.p.HardCap[i], rber))
}

// RequiredLevel implements ecc.Codec: the smallest rate index whose
// hard-decision tail meets the target.
func (c *Codec) RequiredLevel(rber, targetUBER float64) (int, error) {
	if targetUBER <= 0 || targetUBER >= 1 {
		return 0, fmt.Errorf("ldpc: UBER target %g outside (0,1)", targetUBER)
	}
	logTarget := math.Log(targetUBER)
	for i := range c.p.ParityBits {
		if c.logUBER(i, c.p.HardCap[i], rber) <= logTarget {
			return i, nil
		}
	}
	return 0, fmt.Errorf("ldpc: no rate level meets UBER %g at RBER %g", targetUBER, rber)
}

// edgeCount returns the level's Tanner-graph edge count (the unit of
// min-sum iteration work).
func (c *Codec) edgeCount(level int) int {
	m := c.p.ParityBits[level]
	return WC*(c.p.K+crcBits) + 2*m - 1
}

func (c *Codec) toDuration(cycles float64) time.Duration {
	return time.Duration(cycles / c.hw.ClockHz * float64(time.Second))
}

// EncodeLatency implements ecc.Codec: the accumulator encoder streams
// the message once at the bit-parallel width.
func (c *Codec) EncodeLatency(level int) time.Duration {
	i := c.ClampLevel(level)
	n := float64(c.p.K + crcBits + c.p.ParityBits[i])
	return c.toDuration(n/float64(c.hw.BitParallelism) + float64(c.hw.PipelineFillCyc))
}

// DecodeLatency implements ecc.Codec. A clean codeword terminates after
// the initial syndrome pass (the early-termination check); a dirty one
// pays the modelled mean iteration count over the edge pipeline.
func (c *Codec) DecodeLatency(level int, clean bool) time.Duration {
	i := c.ClampLevel(level)
	n := float64(c.p.K + crcBits + c.p.ParityBits[i])
	cycles := n/float64(c.hw.BitParallelism) + float64(c.hw.PipelineFillCyc)
	if !clean {
		perIter := float64(c.edgeCount(i))/float64(c.hw.EdgeParallelism) + n/float64(c.hw.BitParallelism)
		cycles += c.hw.AvgItersHard * perIter
	}
	return c.toDuration(cycles)
}

// SoftDecodeLatency implements ecc.Codec.
func (c *Codec) SoftDecodeLatency(level int) time.Duration {
	i := c.ClampLevel(level)
	n := float64(c.p.K + crcBits + c.p.ParityBits[i])
	perIter := float64(c.edgeCount(i))/float64(c.hw.EdgeParallelism) + n/float64(c.hw.BitParallelism)
	return c.toDuration(n/float64(c.hw.BitParallelism) + float64(c.hw.PipelineFillCyc) +
		c.hw.AvgItersSoft*perIter)
}

var _ ecc.Codec = (*Codec)(nil)
