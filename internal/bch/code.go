// Package bch implements the adaptive binary BCH codec described in §4 of
// Zambelli et al. (DATE 2012): a code over GF(2^16) protecting a full 4 KB
// flash page (k = 32768 bits) with runtime-programmable correction
// capability t in [TMin, TMax] (3..65 for the paper's instantiation, so
// r = 16·t parity bits, n = k + r <= 2^16 - 1, i.e. a shortened code).
//
// The package has three layers:
//
//   - code construction: generator polynomials for every supported t,
//     cached so that reconfiguring t at runtime is table lookup only
//     (mirroring the small ROM of characteristic polynomials in the
//     paper's programmable-LFSR encoder);
//   - a functional codec: systematic encoding via polynomial modulus and
//     a full decoder (syndromes -> inverse-free Berlekamp-Massey -> error
//     locations, shortening offset included), operating on real data
//     buffers;
//   - a hardware timing model (latency.go): cycle counts for the parallel
//     LFSR encoder (parallelism p), syndrome block, iBM machine and Chien
//     search (parallelism h) at a configurable clock, reproducing Fig. 8.
//
// The two describe different machines. The timing model is the paper's
// datapath and is what every modelled latency charges; the functional
// codec is the host algorithm that produces the same bits as cheaply as
// the host can (slice-by-8 LFSR division, remainder-first syndromes, the
// locator's roots by trace splitting in roots.go rather than by a
// position scan). Changing the second must never move the first.
//
// UBER math (uber.go) implements the paper's Eq. (1) in the log domain so
// post-correction error rates down to 1e-30 remain representable, plus the
// inverse problem: the minimum t meeting a target UBER at a given RBER.
package bch

import (
	"fmt"

	"xlnand/internal/gf"
)

// Params describes one BCH code instance BCH[n, k] with correction
// capability t over GF(2^m).
type Params struct {
	M int // Galois field degree; codeword length bound is 2^m - 1
	K int // message length in bits (the protected page)
	T int // correction capability in bit errors per codeword
}

// R returns the number of parity bits r = m·t.
func (p Params) R() int { return p.M * p.T }

// N returns the codeword length n = k + r bits.
func (p Params) N() int { return p.K + p.R() }

// Validate checks the fundamental BCH length inequality k + r <= 2^m - 1
// (paper §4) and basic sanity of the fields.
func (p Params) Validate() error {
	if p.M < 2 || p.M > 16 {
		return fmt.Errorf("bch: field degree m=%d outside [2,16]", p.M)
	}
	if p.K <= 0 {
		return fmt.Errorf("bch: non-positive message length k=%d", p.K)
	}
	if p.T <= 0 {
		return fmt.Errorf("bch: non-positive correction capability t=%d", p.T)
	}
	if p.N() > (1<<uint(p.M))-1 {
		return fmt.Errorf("bch: k + m·t = %d exceeds 2^%d - 1 = %d",
			p.N(), p.M, (1<<uint(p.M))-1)
	}
	return nil
}

// Code is a constructed BCH code: parameters plus the generator polynomial
// and the field it lives in. Codes are immutable and safe for concurrent
// use.
type Code struct {
	Params
	Field *Field

	// Gen is the generator polynomial g(x) = lcm of the minimal
	// polynomials of alpha^1 .. alpha^2t. Its degree is the true parity
	// length; for the fields used here it equals m·t except in rare
	// degenerate coset cases, which Validate treats as the upper bound.
	Gen gf.Poly2

	// GenDegree caches Gen.Degree(): the exact number of parity bits.
	GenDegree int
}

// Field aliases gf.Field so that callers of bch need not import gf for
// the common case.
type Field = gf.Field

// NewCode constructs the BCH code for the given parameters, building the
// generator polynomial from scratch. Prefer NewCodec for adaptive use: it
// shares one field and one minimal-polynomial cache across all t.
func NewCode(p Params) (*Code, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := gf.NewField(p.M)
	cache := gf.MinPolyCache(f)
	return newCodeWith(p, f, cache)
}

func newCodeWith(p Params, f *gf.Field, cache *gf.MinPolyTable) (*Code, error) {
	// g(x) = lcm(m_1, m_2, ..., m_2t). For binary BCH, m_{2i} = m_i, so
	// only odd indices contribute new factors; we still iterate all and
	// dedupe by coset leader via the cache plus a local set.
	gen := gf.NewPoly2FromCoeffs(0) // 1
	seen := make(map[int]bool)
	for i := 1; i <= 2*p.T; i++ {
		leader := f.CosetLeader(i)
		if seen[leader] {
			continue
		}
		seen[leader] = true
		gen = gen.Mul(cache.Get(i))
	}
	deg := gen.Degree()
	if deg > p.R() {
		return nil, fmt.Errorf("bch: generator degree %d exceeds budget m·t=%d", deg, p.R())
	}
	return &Code{Params: p, Field: f, Gen: gen, GenDegree: deg}, nil
}

// CodewordBits returns the on-flash codeword size k + deg(g).
func (c *Code) CodewordBits() int { return c.K + c.GenDegree }

// String implements fmt.Stringer with the conventional BCH[n,k,t] form.
func (c *Code) String() string {
	return fmt.Sprintf("BCH[n=%d,k=%d,t=%d] over GF(2^%d)", c.CodewordBits(), c.K, c.T, c.M)
}
