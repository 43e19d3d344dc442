package bch

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xlnand/internal/gf"
)

// Codec is the adaptive BCH codec of paper §4: a single hardware block
// whose correction capability t is selectable at runtime through a
// dedicated input port, in the range [TMin, TMax]. Codes for every t share
// one Galois field, one minimal-polynomial table and one syndrome
// calculator; per-t state (generator polynomial, division tables) is built
// lazily on first use — the software analogue of the characteristic-
// polynomial ROM feeding the programmable LFSR. Everything immutable and
// large — the field, the syndrome tables, each capability's division
// tables — is shared with every other live Codec of the same geometry
// (a fleet's drives); only the scratch free lists are per Codec.
//
// Codec is safe for concurrent use and, past first use of a capability,
// lock-free: per-t codes, encoders and decoders are published through
// atomic slots indexed by t, so dies hammering the shared codec never
// serialise on a codec-level mutex. The construction mutex is only taken
// the first time a capability is touched (or during Warm).
type Codec struct {
	M    int // field degree
	K    int // protected message bits per codeword
	TMin int
	TMax int

	field *gf.Field
	mpt   *gf.MinPolyTable
	syn   *SyndromeCalc

	mu       sync.Mutex // serialises slot construction only
	codes    []atomic.Pointer[Code]
	encoders []atomic.Pointer[Encoder]
	decoders []atomic.Pointer[Decoder]
}

// PageCodecParams returns the paper's instantiation: GF(2^16), k = 4 KB
// page = 32768 bits, t programmable in [3, 65].
func PageCodecParams() (m, k, tmin, tmax int) { return 16, 32768, 3, 65 }

// NewCodec constructs an adaptive codec. It validates that the largest
// capability still fits the field: k + m·tmax <= 2^m - 1.
func NewCodec(m, k, tmin, tmax int) (*Codec, error) {
	if tmin < 1 || tmin > tmax {
		return nil, fmt.Errorf("bch: invalid capability range [%d, %d]", tmin, tmax)
	}
	if err := (Params{M: m, K: k, T: tmax}).Validate(); err != nil {
		return nil, err
	}
	f := gf.NewField(m)
	return &Codec{
		M: m, K: k, TMin: tmin, TMax: tmax,
		field:    f,
		mpt:      gf.MinPolyCache(f),
		syn:      NewSyndromeCalc(f),
		codes:    make([]atomic.Pointer[Code], tmax-tmin+1),
		encoders: make([]atomic.Pointer[Encoder], tmax-tmin+1),
		decoders: make([]atomic.Pointer[Decoder], tmax-tmin+1),
	}, nil
}

// NewPageCodec builds the paper's 4 KB-page codec (t in [3, 65]).
func NewPageCodec() (*Codec, error) {
	m, k, tmin, tmax := PageCodecParams()
	return NewCodec(m, k, tmin, tmax)
}

// Field exposes the codec's Galois field (shared across capabilities).
func (c *Codec) Field() *gf.Field { return c.field }

// ClampT clips a requested capability into the codec's supported range,
// mirroring the controller behaviour of instantiating the worst-case
// architecture and refusing configurations outside it.
func (c *Codec) ClampT(t int) int {
	if t < c.TMin {
		return c.TMin
	}
	if t > c.TMax {
		return c.TMax
	}
	return t
}

func (c *Codec) slot(t int) (int, error) {
	if t < c.TMin || t > c.TMax {
		return 0, fmt.Errorf("bch: t=%d outside supported range [%d, %d]", t, c.TMin, c.TMax)
	}
	return t - c.TMin, nil
}

// Code returns (building if needed) the code instance for capability t.
func (c *Codec) Code(t int) (*Code, error) {
	i, err := c.slot(t)
	if err != nil {
		return nil, err
	}
	if code := c.codes[i].Load(); code != nil {
		return code, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if code := c.codes[i].Load(); code != nil {
		return code, nil
	}
	code, err := newCodeWith(Params{M: c.M, K: c.K, T: t}, c.field, c.mpt)
	if err != nil {
		return nil, err
	}
	c.codes[i].Store(code)
	return code, nil
}

func (c *Codec) encoder(t int) (*Encoder, error) {
	i, err := c.slot(t)
	if err != nil {
		return nil, err
	}
	if e := c.encoders[i].Load(); e != nil {
		return e, nil
	}
	code, err := c.Code(t)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.encoders[i].Load(); e != nil {
		return e, nil
	}
	e := NewEncoder(code)
	c.encoders[i].Store(e)
	return e, nil
}

func (c *Codec) decoder(t int) (*Decoder, error) {
	i, err := c.slot(t)
	if err != nil {
		return nil, err
	}
	if d := c.decoders[i].Load(); d != nil {
		return d, nil
	}
	code, err := c.Code(t)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.decoders[i].Load(); d != nil {
		return d, nil
	}
	d := NewDecoder(code, c.syn)
	c.decoders[i].Store(d)
	return d, nil
}

// ParityBytes returns the spare-area bytes consumed at capability t.
func (c *Codec) ParityBytes(t int) (int, error) {
	code, err := c.Code(t)
	if err != nil {
		return 0, err
	}
	return (code.GenDegree + 7) / 8, nil
}

// EncodeInto computes the parity block for msg at capability t into
// parity (exactly ParityBytes(t) bytes). It is the allocation-free
// steady-state write path.
func (c *Codec) EncodeInto(t int, parity, msg []byte) error {
	e, err := c.encoder(t)
	if err != nil {
		return err
	}
	return e.EncodeInto(parity, msg)
}

// EncodeCodeword returns msg ++ parity at capability t.
func (c *Codec) EncodeCodeword(t int, msg []byte) ([]byte, error) {
	e, err := c.encoder(t)
	if err != nil {
		return nil, err
	}
	return e.EncodeCodeword(msg)
}

// Decode corrects codeword in place at capability t, returning the number
// of corrected bit errors or ErrUncorrectable.
func (c *Codec) Decode(t int, codeword []byte) (int, error) {
	d, err := c.decoder(t)
	if err != nil {
		return 0, err
	}
	return d.Decode(codeword)
}

// DecodeSensed is Decode at capability t for a codeword this codec
// encoded at t with exactly the bit positions in flips inverted; see
// Decoder.DecodeSensed. It implements ecc.SensedDecoder.
func (c *Codec) DecodeSensed(t int, codeword []byte, flips []int) (int, error) {
	d, err := c.decoder(t)
	if err != nil {
		return 0, err
	}
	return d.DecodeSensed(codeword, flips)
}

// Warm pre-builds the code, encoder and decoder for capability t — plus
// the shared syndrome lookup tables — so that first use in a
// latency-sensitive path needs no construction work and takes no lock.
func (c *Codec) Warm(t int) error {
	if _, err := c.encoder(t); err != nil {
		return err
	}
	_, err := c.decoder(t)
	return err
}
