package gf

// PolyM is a dense polynomial over GF(2^m): Coeffs[i] is the coefficient
// of x^i. PolyM values are operated on functionally; methods never modify
// their receivers.
type PolyM struct {
	F      *Field
	Coeffs []uint32
}

// NewPolyM builds a polynomial over f with the given ascending
// coefficients.
func NewPolyM(f *Field, coeffs ...uint32) PolyM {
	return PolyM{F: f, Coeffs: append([]uint32(nil), coeffs...)}.trim()
}

func (p PolyM) trim() PolyM {
	i := len(p.Coeffs)
	for i > 0 && p.Coeffs[i-1] == 0 {
		i--
	}
	return PolyM{F: p.F, Coeffs: p.Coeffs[:i]}
}

// Degree returns the polynomial degree, -1 for zero.
func (p PolyM) Degree() int { return len(p.trim().Coeffs) - 1 }

// IsZero reports whether all coefficients vanish.
func (p PolyM) IsZero() bool { return p.Degree() < 0 }

// Coeff returns the coefficient of x^i (0 beyond the stored degree).
func (p PolyM) Coeff(i int) uint32 {
	if i < 0 || i >= len(p.Coeffs) {
		return 0
	}
	return p.Coeffs[i]
}

// Add returns p + q.
func (p PolyM) Add(q PolyM) PolyM {
	n := len(p.Coeffs)
	if len(q.Coeffs) > n {
		n = len(q.Coeffs)
	}
	out := make([]uint32, n)
	copy(out, p.Coeffs)
	for i, c := range q.Coeffs {
		out[i] ^= c
	}
	return PolyM{F: p.F, Coeffs: out}.trim()
}

// Scale returns p * c for a field scalar c.
func (p PolyM) Scale(c uint32) PolyM {
	out := make([]uint32, len(p.Coeffs))
	for i, a := range p.Coeffs {
		out[i] = p.F.Mul(a, c)
	}
	return PolyM{F: p.F, Coeffs: out}.trim()
}

// Mul returns p * q by schoolbook convolution (degrees here are <= 2t,
// tiny, so no fancier algorithm is warranted).
func (p PolyM) Mul(q PolyM) PolyM {
	if p.IsZero() || q.IsZero() {
		return PolyM{F: p.F}
	}
	out := make([]uint32, len(p.Coeffs)+len(q.Coeffs)-1)
	for i, a := range p.Coeffs {
		if a == 0 {
			continue
		}
		for j, b := range q.Coeffs {
			if b == 0 {
				continue
			}
			out[i+j] ^= p.F.Mul(a, b)
		}
	}
	return PolyM{F: p.F, Coeffs: out}.trim()
}

// MulXPlusConst returns p * (x + c), the incremental product used when
// assembling minimal polynomials from conjugate roots.
func (p PolyM) MulXPlusConst(c uint32) PolyM {
	out := make([]uint32, len(p.Coeffs)+1)
	for i, a := range p.Coeffs {
		out[i+1] ^= a           // a * x
		out[i] ^= p.F.Mul(a, c) // a * c
	}
	return PolyM{F: p.F, Coeffs: out}.trim()
}

// Eval evaluates p at x via Horner's rule.
func (p PolyM) Eval(x uint32) uint32 {
	acc := uint32(0)
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		acc = p.F.Mul(acc, x) ^ p.Coeffs[i]
	}
	return acc
}

// ToPoly2 converts a polynomial whose coefficients are all in {0,1} to a
// Poly2. It panics if any coefficient lies outside the prime subfield,
// which would indicate a bug in minimal-polynomial construction.
func (p PolyM) ToPoly2() Poly2 {
	exps := []int{}
	for i, c := range p.Coeffs {
		switch c {
		case 0:
		case 1:
			exps = append(exps, i)
		default:
			panic("gf: polynomial has coefficients outside GF(2)")
		}
	}
	return NewPoly2FromCoeffs(exps...)
}

// Equal reports coefficient-wise equality.
func (p PolyM) Equal(q PolyM) bool {
	a, b := p.trim(), q.trim()
	if len(a.Coeffs) != len(b.Coeffs) {
		return false
	}
	for i := range a.Coeffs {
		if a.Coeffs[i] != b.Coeffs[i] {
			return false
		}
	}
	return true
}
