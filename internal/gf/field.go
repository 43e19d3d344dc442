// Package gf implements arithmetic over the binary Galois fields GF(2^m)
// for 2 <= m <= 16, together with polynomial arithmetic over GF(2) and
// over GF(2^m), cyclotomic cosets and minimal polynomials. It is the
// algebraic substrate of the BCH codec in internal/bch.
//
// Field elements are represented in the polynomial basis as uint32 values
// whose low m bits are the coefficients of the basis polynomial; 0 is the
// additive identity and 1 the multiplicative identity. Multiplication and
// inversion use log/antilog tables built once per process per field.
package gf

import (
	"fmt"
	"sync"
)

// Default primitive polynomials (in hex, including the x^m term) for each
// supported m. These are the conventional primitive trinomials/pentanomials
// used throughout the coding literature (e.g. Lin & Costello, App. B).
var defaultPrimPoly = map[int]uint32{
	2:  0x7,     // x^2+x+1
	3:  0xb,     // x^3+x+1
	4:  0x13,    // x^4+x+1
	5:  0x25,    // x^5+x^2+1
	6:  0x43,    // x^6+x+1
	7:  0x89,    // x^7+x^3+1
	8:  0x11d,   // x^8+x^4+x^3+x^2+1
	9:  0x211,   // x^9+x^4+1
	10: 0x409,   // x^10+x^3+1
	11: 0x805,   // x^11+x^2+1
	12: 0x1053,  // x^12+x^6+x^4+x+1
	13: 0x201b,  // x^13+x^4+x^3+x+1
	14: 0x4443,  // x^14+x^10+x^6+x+1
	15: 0x8003,  // x^15+x+1
	16: 0x1100b, // x^16+x^12+x^3+x+1
}

// Field is a finite field GF(2^m). It is immutable after construction and
// safe for concurrent use.
type Field struct {
	m        int    // extension degree
	n        uint32 // field size - 1 = 2^m - 1 (multiplicative group order)
	primPoly uint32
	logTbl   []uint16 // logTbl[x] = log_alpha(x), x in 1..n
	expTbl   []uint16 // expTbl[i] = alpha^i, duplicated to 2n to skip a mod; elements of GF(2^m<=16) fit uint16
}

// NewField constructs GF(2^m) with the library's default primitive
// polynomial for that m. It panics for m outside [2, 16].
func NewField(m int) *Field {
	pp, ok := defaultPrimPoly[m]
	if !ok {
		panic(fmt.Sprintf("gf: unsupported field degree m=%d", m))
	}
	f, err := NewFieldPoly(m, pp)
	if err != nil {
		panic(err) // default polynomials are known-primitive
	}
	return f
}

// fields holds every field built so far, keyed by its polynomial (whose
// top bit gives m). A Field is immutable and GF(2^16) is 384 KB of
// tables, so every drive of a fleet shares one; the handful of distinct
// polynomials a process ever asks for are kept for its lifetime.
var fields struct {
	sync.Mutex
	byPoly map[uint32]*Field
}

// NewFieldPoly constructs GF(2^m) using the given degree-m polynomial
// (bit i of primPoly is the coefficient of x^i, bit m must be set).
// It returns an error if the polynomial is not primitive, detected during
// table generation by a premature cycle of alpha powers. Asking again for
// the same polynomial returns the same Field.
func NewFieldPoly(m int, primPoly uint32) (*Field, error) {
	if m < 2 || m > 16 {
		return nil, fmt.Errorf("gf: unsupported field degree m=%d", m)
	}
	if primPoly>>uint(m) != 1 {
		return nil, fmt.Errorf("gf: polynomial %#x does not have degree %d", primPoly, m)
	}
	fields.Lock()
	defer fields.Unlock()
	if f := fields.byPoly[primPoly]; f != nil {
		return f, nil
	}
	n := uint32(1)<<uint(m) - 1
	f := &Field{
		m:        m,
		n:        n,
		primPoly: primPoly,
		logTbl:   make([]uint16, n+1),
		expTbl:   make([]uint16, 2*n),
	}
	x := uint32(1)
	for i := uint32(0); i < n; i++ {
		if x == 1 && i != 0 {
			return nil, fmt.Errorf("gf: polynomial %#x is not primitive (alpha order %d < %d)", primPoly, i, n)
		}
		f.expTbl[i] = uint16(x)
		f.expTbl[i+n] = uint16(x)
		f.logTbl[x] = uint16(i)
		x <<= 1
		if x>>uint(m) == 1 {
			x ^= primPoly
		}
	}
	if x != 1 {
		return nil, fmt.Errorf("gf: polynomial %#x is not primitive (alpha^%d != 1)", primPoly, n)
	}
	if fields.byPoly == nil {
		fields.byPoly = make(map[uint32]*Field)
	}
	fields.byPoly[primPoly] = f
	return f, nil
}

// M returns the extension degree m.
func (f *Field) M() int { return f.m }

// Size returns the number of field elements, 2^m.
func (f *Field) Size() int { return int(f.n) + 1 }

// N returns the multiplicative group order 2^m - 1.
func (f *Field) N() int { return int(f.n) }

// PrimPoly returns the primitive polynomial defining the field.
func (f *Field) PrimPoly() uint32 { return f.primPoly }

// Alpha returns alpha^i for any integer exponent i (negative allowed).
func (f *Field) Alpha(i int) uint32 {
	e := i % int(f.n)
	if e < 0 {
		e += int(f.n)
	}
	return uint32(f.expTbl[e])
}

// Log returns log_alpha(x). It panics on x == 0, which has no logarithm.
func (f *Field) Log(x uint32) int {
	if x == 0 {
		panic("gf: log of zero")
	}
	return int(f.logTbl[x])
}

// Add returns a + b (= a - b) in GF(2^m).
func (f *Field) Add(a, b uint32) uint32 { return a ^ b }

// Mul returns a * b.
func (f *Field) Mul(a, b uint32) uint32 {
	if a == 0 || b == 0 {
		return 0
	}
	return uint32(f.expTbl[uint32(f.logTbl[a])+uint32(f.logTbl[b])])
}

// MulAlphaN returns x * alpha^e for a pre-reduced exponent 0 <= e < N.
// It performs no modulo and no range correction: the antilog table is stored doubled (2N entries), so log(x) + e always
// indexes it directly. This is the inner step of the fused syndrome
// kernel and the decoder's re-check in internal/bch; callers must
// guarantee the range.
func (f *Field) MulAlphaN(x uint32, e int) uint32 {
	if x == 0 {
		return 0
	}
	return uint32(f.expTbl[int(f.logTbl[x])+e])
}

// Tables exposes the field's log and doubled antilog tables for hot
// kernels that cannot afford a method call per element: log has N+1
// entries (log[0] is meaningless), exp has 2N entries with
// exp[i] == exp[i+N] == alpha^i. Elements are stored as uint16 (any
// GF(2^m<=16) element fits) to halve the hot working set. Both slices
// are shared and MUST be treated as read-only.
func (f *Field) Tables() (log, exp []uint16) {
	return f.logTbl, f.expTbl
}

// Inv returns the multiplicative inverse of a. It panics on a == 0.
func (f *Field) Inv(a uint32) uint32 {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return uint32(f.expTbl[f.n-uint32(f.logTbl[a])])
}

// Div returns a / b. It panics on b == 0.
func (f *Field) Div(a, b uint32) uint32 {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	return uint32(f.expTbl[uint32(f.logTbl[a])+f.n-uint32(f.logTbl[b])])
}

// Pow returns a^e for any integer e (negative exponents use the inverse).
// Pow(0, 0) is defined as 1; Pow(0, e<0) panics.
func (f *Field) Pow(a uint32, e int) uint32 {
	if a == 0 {
		if e == 0 {
			return 1
		}
		if e < 0 {
			panic("gf: zero to negative power")
		}
		return 0
	}
	le := (int(f.logTbl[a]) * (e % int(f.n))) % int(f.n)
	if le < 0 {
		le += int(f.n)
	}
	return uint32(f.expTbl[le])
}

// Sqr returns a^2 (squaring is linear in characteristic 2 but we use the
// tables for uniformity).
func (f *Field) Sqr(a uint32) uint32 { return f.Mul(a, a) }

// Trace returns the field trace Tr(a) = a + a^2 + a^4 + ... + a^(2^(m-1)),
// which is always 0 or 1.
func (f *Field) Trace(a uint32) uint32 {
	t := a
	x := a
	for i := 1; i < f.m; i++ {
		x = f.Sqr(x)
		t ^= x
	}
	return t & 1
}
