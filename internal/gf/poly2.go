package gf

import (
	"fmt"
	"math/bits"
	"strings"

	"xlnand/internal/stats"
)

// Poly2 is a polynomial over GF(2), bit-packed into uint64 words with
// coefficient of x^i stored at word i/64, bit i%64. The zero polynomial is
// represented by an empty (or all-zero) word slice. Poly2 values are
// treated as immutable by all methods; operations return new polynomials.
type Poly2 struct {
	w []uint64
}

// NewPoly2FromCoeffs builds a polynomial from the exponents whose
// coefficients are 1, e.g. NewPoly2FromCoeffs(0, 1, 3) = 1 + x + x^3.
func NewPoly2FromCoeffs(exps ...int) Poly2 {
	p := Poly2{}
	for _, e := range exps {
		if e < 0 {
			panic("gf: negative exponent")
		}
		p = p.ensure(e/64 + 1)
		p.w[e/64] ^= 1 << uint(e%64)
	}
	return p.trim()
}

// RandPoly2 draws a polynomial with i.i.d. uniform coefficients up to
// degree maxDeg from the injected generator. All randomness in this
// package flows through an explicit, seedable *stats.RNG — never a
// global source — so every consumer up to the lifetime scenario engine
// stays bit-reproducible end to end; callers that only need "some"
// polynomial pass stats.NewRNG with a fixed seed.
func RandPoly2(r *stats.RNG, maxDeg int) Poly2 {
	if maxDeg < 0 {
		panic("gf: negative degree bound")
	}
	p := Poly2{}.ensure(maxDeg/64 + 1)
	for e := 0; e <= maxDeg; e++ {
		if r.Bernoulli(0.5) {
			p.w[e/64] |= 1 << uint(e%64)
		}
	}
	return p.trim()
}

// NewPoly2FromBits builds a polynomial whose i-th coefficient is bit i of
// the given word (low 32 degrees), convenient for primitive polynomials.
func NewPoly2FromBits(bitsWord uint64) Poly2 {
	if bitsWord == 0 {
		return Poly2{}
	}
	return Poly2{w: []uint64{bitsWord}}.trim()
}

// NewPoly2FromBytes interprets data as a polynomial with data[0]'s MSB as
// the highest-degree coefficient (the natural order of a message whose
// first bit transmitted is the highest power, as in systematic BCH
// encoding of a page). nbits limits the number of valid bits.
func NewPoly2FromBytes(data []byte, nbits int) Poly2 {
	if nbits < 0 || nbits > len(data)*8 {
		panic("gf: nbits out of range")
	}
	p := Poly2{}.ensure((nbits + 63) / 64)
	for i := 0; i < nbits; i++ {
		byteIdx := i / 8
		bit := (data[byteIdx] >> uint(7-i%8)) & 1
		if bit == 1 {
			deg := nbits - 1 - i
			p.w[deg/64] |= 1 << uint(deg%64)
		}
	}
	return p.trim()
}

func (p Poly2) ensure(words int) Poly2 {
	if len(p.w) >= words {
		return p
	}
	nw := make([]uint64, words)
	copy(nw, p.w)
	return Poly2{w: nw}
}

func (p Poly2) trim() Poly2 {
	i := len(p.w)
	for i > 0 && p.w[i-1] == 0 {
		i--
	}
	return Poly2{w: p.w[:i]}
}

// XorInto adds p into dst, a word vector in Poly2's own layout
// (coefficient of x^i at word i/64, bit i%64) at least Degree()/64+1
// words long.
func (p Poly2) XorInto(dst []uint64) {
	for i, w := range p.trim().w {
		dst[i] ^= w
	}
}

// IsZero reports whether p is the zero polynomial.
func (p Poly2) IsZero() bool {
	for _, w := range p.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Degree returns the degree of p, or -1 for the zero polynomial.
func (p Poly2) Degree() int {
	for i := len(p.w) - 1; i >= 0; i-- {
		if p.w[i] != 0 {
			return i*64 + 63 - bits.LeadingZeros64(p.w[i])
		}
	}
	return -1
}

// Coeff returns the coefficient (0 or 1) of x^i.
func (p Poly2) Coeff(i int) uint32 {
	if i < 0 || i/64 >= len(p.w) {
		return 0
	}
	return uint32((p.w[i/64] >> uint(i%64)) & 1)
}

// Weight returns the number of nonzero coefficients.
func (p Poly2) Weight() int {
	w := 0
	for _, word := range p.w {
		w += bits.OnesCount64(word)
	}
	return w
}

// Clone returns an independent copy of p.
func (p Poly2) Clone() Poly2 {
	return Poly2{w: append([]uint64(nil), p.w...)}
}

// Add returns p + q (XOR of coefficients).
func (p Poly2) Add(q Poly2) Poly2 {
	n := len(p.w)
	if len(q.w) > n {
		n = len(q.w)
	}
	out := make([]uint64, n)
	copy(out, p.w)
	for i, w := range q.w {
		out[i] ^= w
	}
	return Poly2{w: out}.trim()
}

// ShiftLeft returns p * x^k.
func (p Poly2) ShiftLeft(k int) Poly2 {
	if k < 0 {
		panic("gf: negative shift")
	}
	if p.IsZero() {
		return Poly2{}
	}
	words, rem := k/64, uint(k%64)
	out := make([]uint64, len(p.w)+words+1)
	for i, w := range p.w {
		out[i+words] |= w << rem
		if rem != 0 {
			out[i+words+1] |= w >> (64 - rem)
		}
	}
	return Poly2{w: out}.trim()
}

// Mul returns p * q via word-sliced carry-less multiplication.
func (p Poly2) Mul(q Poly2) Poly2 {
	if p.IsZero() || q.IsZero() {
		return Poly2{}
	}
	// Iterate over set bits of the smaller operand.
	a, b := p, q
	if a.Weight() > b.Weight() {
		a, b = b, a
	}
	out := Poly2{}
	for wi, word := range a.w {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << uint(bit)
			out = out.Add(b.ShiftLeft(wi*64 + bit))
		}
	}
	return out
}

// Mod returns p mod q. It panics if q is zero.
func (p Poly2) Mod(q Poly2) Poly2 {
	_, r := p.DivMod(q)
	return r
}

// DivMod returns the quotient and remainder of p / q. It panics if q is
// the zero polynomial.
func (p Poly2) DivMod(q Poly2) (quo, rem Poly2) {
	dq := q.Degree()
	if dq < 0 {
		panic("gf: division by zero polynomial")
	}
	r := p.Clone()
	dr := r.Degree()
	if dr < dq {
		return Poly2{}, r.trim()
	}
	quoWords := make([]uint64, (dr-dq)/64+1)
	for dr >= dq {
		shift := dr - dq
		quoWords[shift/64] |= 1 << uint(shift%64)
		// r -= q << shift, in place
		words, remBits := shift/64, uint(shift%64)
		r = r.ensure(words + len(q.w) + 1)
		for i, w := range q.w {
			r.w[i+words] ^= w << remBits
			if remBits != 0 && i+words+1 < len(r.w) {
				r.w[i+words+1] ^= w >> (64 - remBits)
			}
		}
		dr = r.Degree()
	}
	return Poly2{w: quoWords}.trim(), r.trim()
}

// Eval evaluates p at the element x of the field f using Horner's rule.
func (p Poly2) Eval(f *Field, x uint32) uint32 {
	d := p.Degree()
	if d < 0 {
		return 0
	}
	acc := uint32(0)
	for i := d; i >= 0; i-- {
		acc = f.Mul(acc, x) ^ p.Coeff(i)
	}
	return acc
}

// Bytes serialises the polynomial MSB-first into ceil(nbits/8) bytes,
// where coefficient of x^(nbits-1) lands in the MSB of byte 0. This is the
// inverse of NewPoly2FromBytes.
func (p Poly2) Bytes(nbits int) []byte {
	out := make([]byte, (nbits+7)/8)
	for i := 0; i < nbits; i++ {
		deg := nbits - 1 - i
		if p.Coeff(deg) == 1 {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
	return out
}

// Equal reports whether p and q have identical coefficients.
func (p Poly2) Equal(q Poly2) bool {
	a, b := p.trim(), q.trim()
	if len(a.w) != len(b.w) {
		return false
	}
	for i := range a.w {
		if a.w[i] != b.w[i] {
			return false
		}
	}
	return true
}

// String renders the polynomial in conventional descending-power notation,
// e.g. "x^3 + x + 1". The zero polynomial renders as "0".
func (p Poly2) String() string {
	d := p.Degree()
	if d < 0 {
		return "0"
	}
	var terms []string
	for i := d; i >= 0; i-- {
		if p.Coeff(i) == 0 {
			continue
		}
		switch i {
		case 0:
			terms = append(terms, "1")
		case 1:
			terms = append(terms, "x")
		default:
			terms = append(terms, fmt.Sprintf("x^%d", i))
		}
	}
	return strings.Join(terms, " + ")
}
