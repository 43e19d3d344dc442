// Package ecc defines the family-generic codec surface the memory
// controller programs against. The paper's architecture hard-wires one
// adaptive BCH block; modern controllers treat the ECC capability knob as
// a trade-off surface spanning code families — hard-decision algebraic
// codes (BCH) for the low-latency common case and soft-decision LDPC as
// the recovery endgame (Cai et al., arXiv:1805.02819; Luo,
// arXiv:1808.04016). This package is the seam: a Codec is an adaptive
// encoder/decoder whose correction strength is selected by an abstract
// *level* — the BCH capability t, or the LDPC rate index — and whose
// spare-area footprint, latency and reliability descriptors the
// controller, dispatcher and reliability manager consume without knowing
// the family.
//
// Levels share one contract across families: higher level means more
// parity and more correction; ParityBytes is strictly monotone in level,
// so the write-time level is always recoverable from the stored spare
// length (LevelForSpare) — reconfiguring a controller between write and
// read never corrupts old pages, exactly as the BCH geometry r = m·t
// already guaranteed.
package ecc

import (
	"errors"
	"time"
)

// Family identifies a codec family.
type Family int

const (
	// FamilyBCH is the paper's adaptive hard-decision BCH codec
	// (level = correction capability t).
	FamilyBCH Family = iota
	// FamilyLDPC is the rate-compatible quasi-cyclic LDPC codec with
	// normalized min-sum decoding (level = rate index; higher level means
	// more parity, i.e. a lower code rate).
	FamilyLDPC
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamilyBCH:
		return "bch"
	case FamilyLDPC:
		return "ldpc"
	default:
		return "family?"
	}
}

// ErrNoSoftPath is returned by DecodeSoft on codecs without a
// soft-decision decoder (the controller then never schedules the
// soft-sense rung).
var ErrNoSoftPath = errors.New("ecc: codec has no soft-decision decode path")

// Codec is the family-generic adaptive codec. Each family is one type
// that implements all of it. Implementations must be safe for
// concurrent use (one hardware codec is shared by every die) and
// allocation-free on the steady-state EncodeInto, Decode, DecodeSensed
// and DecodeSoft paths.
//
// A successful Decode, DecodeSensed or DecodeSoft at level leaves a
// codeword of level in the buffer: its parity bytes are exactly what
// EncodeInto(level, ...) computes for its message bytes, miscorrections
// included (a miscorrected word is another codeword). BCH accepts a word
// only when its syndromes vanish after the re-check, or, in
// DecodeSensed, when undoing the flips restores the codeword it encoded;
// LDPC only when every check is satisfied (its dual-diagonal parity part
// makes the parity unique given the message and CRC) and the CRC holds.
// A copy-back relocation relies on it: it programs the parity its read
// decoded instead of encoding again.
type Codec interface {
	// Family identifies the code family.
	Family() Family
	// DataBits is the protected message length k per codeword.
	DataBits() int

	// MinLevel/MaxLevel bound the capability range; ClampLevel clips a
	// requested level into it (the worst-case-instantiated hardware
	// refuses nothing, it saturates).
	MinLevel() int
	MaxLevel() int
	ClampLevel(level int) int

	// ParityBytes is the spare-area footprint of a codeword at level.
	// It is strictly monotone in level.
	ParityBytes(level int) (int, error)
	// LevelForSpare recovers the write-time level from a stored parity
	// size; it errors when the spare length maps to no level.
	LevelForSpare(spareBytes int) (int, error)
	// CodewordBits is the total codeword length n at level.
	CodewordBits(level int) (int, error)
	// CorrectionCap is the number of raw bit errors per codeword the
	// hard-decision decode reliably corrects at level — exact for
	// bounded-distance codes (BCH: t), a calibrated conservative bound
	// for iterative decoders (LDPC). Policies and conformance tests key
	// on it.
	CorrectionCap(level int) int

	// EncodeInto writes the parity block for msg at level into parity
	// (exactly ParityBytes(level) bytes) without allocating.
	EncodeInto(level int, parity, msg []byte) error
	// Decode hard-decodes codeword (msg ++ parity) in place, returning
	// the number of corrected bit errors. On failure the codeword is
	// left unmodified (rollback contract).
	Decode(level int, codeword []byte) (int, error)
	// DecodeSensed is Decode for a sensed page the controller knows
	// holds the codeword this codec encoded at level, with exactly the
	// listed bit positions inverted (the device reports the positions
	// it injected). flips holds distinct codeword bit positions: bit i
	// is the MSB-first bit i%8 of byte i/8 of msg ++ parity. For such a
	// codeword DecodeSensed returns what Decode returns and leaves the
	// buffer exactly as Decode leaves it, rollback included; for any
	// other word its result is unspecified. With no flips the word is
	// that codeword, which every decoder accepts as it stands: the
	// result is count 0, no error, buffer untouched, and no decoder
	// need run. An algebraic decoder, whose syndromes are linear in the
	// received word, takes them from the positions alone and need not
	// read the page. A bounded-distance decoder of capability t
	// (CorrectionCap) does not even need that when len(flips) <= t: its
	// code's distance is at least 2t+1, so the flips are the one
	// pattern of weight <= t that explains the word, Decode returns
	// exactly them, and undoing them in place with count len(flips) and
	// no error is Decode's result. A decoder that gains nothing from
	// the positions (an iterative one, whose cap bounds nothing) decodes
	// any other word in full.
	DecodeSensed(level int, codeword []byte, flips []int) (int, error)
	// DecodeSoft decodes with per-bit confidence: llr holds one signed
	// log-likelihood per codeword bit (positive = bit 0, magnitude =
	// confidence; sign must agree with the hard decisions in codeword).
	// Same rollback contract as Decode. Codecs without a soft path
	// return ErrNoSoftPath.
	DecodeSoft(level int, codeword []byte, llr []int8) (int, error)
	// SupportsSoft reports whether DecodeSoft is implemented.
	SupportsSoft() bool

	// RequiredLevel returns the minimum level meeting the UBER target at
	// the raw bit error rate, or an error when even MaxLevel misses it.
	RequiredLevel(rber, targetUBER float64) (int, error)
	// ProjectedUBER is the modelled post-correction error rate of the
	// hard-decision decode at (level, rber).
	ProjectedUBER(level int, rber float64) float64

	// Latency descriptors at the codec's modelled micro-architecture.
	EncodeLatency(level int) time.Duration
	DecodeLatency(level int, clean bool) time.Duration
	MeasuredLatency
	// SoftDecodeLatency is the soft-input decode cost (0 when
	// unsupported).
	SoftDecodeLatency(level int) time.Duration
}

// MeasuredLatency prices a successful hard decode at the error weight
// it corrected; the controller books the returned duration on the
// codec calendar. An engine whose decode cost depends on the weight
// calibrates it against the decoder itself (e.g. measured min-sum
// iterations-to-converge per level × weight); one whose cost does not
// returns DecodeLatency(level, nErr == 0). Either way nErr == 0 must
// agree with DecodeLatency(level, true), so clean reads price
// identically on every path. It is a named interface embedded in Codec,
// rather than a plain Codec method, because the benchmark module
// asserts the name.
type MeasuredLatency interface {
	MeasuredDecodeLatency(level, nErr int) time.Duration
}
