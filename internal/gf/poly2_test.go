package gf

import (
	"testing"

	"xlnand/internal/stats"
)

// randPoly2 delegates to the package's injectable-RNG constructor so
// the tests exercise the same draw path production callers use.
func randPoly2(r *stats.RNG, maxDeg int) Poly2 {
	return RandPoly2(r, maxDeg)
}

func TestRandPoly2Reproducible(t *testing.T) {
	// Identical seeds must yield identical draws (the package-level
	// reproducibility contract), distinct seeds distinct streams.
	a := RandPoly2(stats.NewRNG(7), 300)
	b := RandPoly2(stats.NewRNG(7), 300)
	if !a.Equal(b) {
		t.Fatalf("same seed drew different polynomials:\n%v\n%v", a, b)
	}
	c := RandPoly2(stats.NewRNG(8), 300)
	if a.Equal(c) {
		t.Fatalf("different seeds drew identical polynomials")
	}
	if d := a.Degree(); d > 300 {
		t.Fatalf("degree %d exceeds bound", d)
	}
}

func TestPoly2Construction(t *testing.T) {
	p := NewPoly2FromCoeffs(0, 1, 3)
	if p.Degree() != 3 {
		t.Fatalf("degree = %d, want 3", p.Degree())
	}
	if p.Coeff(0) != 1 || p.Coeff(1) != 1 || p.Coeff(2) != 0 || p.Coeff(3) != 1 {
		t.Fatalf("bad coefficients: %v", p)
	}
	if p.Weight() != 3 {
		t.Fatalf("weight = %d, want 3", p.Weight())
	}
	if p.String() != "x^3 + x + 1" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestPoly2DuplicateExponentsCancel(t *testing.T) {
	// In GF(2), adding the same exponent twice cancels.
	p := NewPoly2FromCoeffs(2, 2)
	if !p.IsZero() {
		t.Fatalf("x^2 + x^2 should be 0, got %v", p)
	}
}

func TestPoly2Zero(t *testing.T) {
	var z Poly2
	if !z.IsZero() || z.Degree() != -1 || z.String() != "0" {
		t.Fatalf("zero polynomial misbehaves: %v deg=%d", z, z.Degree())
	}
}

func TestPoly2FromBits(t *testing.T) {
	p := NewPoly2FromBits(0b1011) // x^3 + x + 1
	if !p.Equal(NewPoly2FromCoeffs(0, 1, 3)) {
		t.Fatalf("FromBits mismatch: %v", p)
	}
	if !NewPoly2FromBits(0).IsZero() {
		t.Fatal("FromBits(0) not zero")
	}
}

func TestPoly2AddSelfIsZero(t *testing.T) {
	r := stats.NewRNG(1)
	for i := 0; i < 100; i++ {
		p := randPoly2(r, 200)
		if !p.Add(p).IsZero() {
			t.Fatalf("p + p != 0 for %v", p)
		}
	}
}

func TestPoly2AddCommutativeAssociative(t *testing.T) {
	r := stats.NewRNG(2)
	for i := 0; i < 200; i++ {
		a, b, c := randPoly2(r, 150), randPoly2(r, 150), randPoly2(r, 150)
		if !a.Add(b).Equal(b.Add(a)) {
			t.Fatal("add not commutative")
		}
		if !a.Add(b).Add(c).Equal(a.Add(b.Add(c))) {
			t.Fatal("add not associative")
		}
	}
}

func TestPoly2ShiftLeft(t *testing.T) {
	p := NewPoly2FromCoeffs(0, 2) // 1 + x^2
	q := p.ShiftLeft(3)           // x^3 + x^5
	if !q.Equal(NewPoly2FromCoeffs(3, 5)) {
		t.Fatalf("shift mismatch: %v", q)
	}
	// Cross word boundary.
	big := NewPoly2FromCoeffs(0).ShiftLeft(63 + 5)
	if big.Degree() != 68 {
		t.Fatalf("cross-word shift degree = %d", big.Degree())
	}
}

func TestPoly2MulKnown(t *testing.T) {
	// (x+1)(x+1) = x^2+1 over GF(2)
	p := NewPoly2FromCoeffs(0, 1)
	if got := p.Mul(p); !got.Equal(NewPoly2FromCoeffs(0, 2)) {
		t.Fatalf("(x+1)^2 = %v", got)
	}
	// (x^2+x+1)(x+1) = x^3+1
	a := NewPoly2FromCoeffs(0, 1, 2)
	b := NewPoly2FromCoeffs(0, 1)
	if got := a.Mul(b); !got.Equal(NewPoly2FromCoeffs(0, 3)) {
		t.Fatalf("product = %v, want x^3 + 1", got)
	}
}

func TestPoly2MulDegreeAdds(t *testing.T) {
	r := stats.NewRNG(3)
	for i := 0; i < 100; i++ {
		a, b := randPoly2(r, 90), randPoly2(r, 130)
		if a.IsZero() || b.IsZero() {
			continue
		}
		if got := a.Mul(b).Degree(); got != a.Degree()+b.Degree() {
			t.Fatalf("deg(ab) = %d, want %d", got, a.Degree()+b.Degree())
		}
	}
}

func TestPoly2MulCommutative(t *testing.T) {
	r := stats.NewRNG(4)
	for i := 0; i < 50; i++ {
		a, b := randPoly2(r, 100), randPoly2(r, 100)
		if !a.Mul(b).Equal(b.Mul(a)) {
			t.Fatal("mul not commutative")
		}
	}
}

func TestPoly2DivModInvariant(t *testing.T) {
	// For random a, b != 0: a = q*b + r with deg(r) < deg(b).
	r := stats.NewRNG(5)
	for i := 0; i < 300; i++ {
		a := randPoly2(r, 300)
		b := randPoly2(r, 60)
		if b.IsZero() {
			continue
		}
		q, rem := a.DivMod(b)
		if rem.Degree() >= b.Degree() {
			t.Fatalf("deg(rem)=%d >= deg(b)=%d", rem.Degree(), b.Degree())
		}
		if !q.Mul(b).Add(rem).Equal(a) {
			t.Fatalf("q*b + r != a")
		}
	}
}

func TestPoly2ModByDivisor(t *testing.T) {
	a := NewPoly2FromCoeffs(0, 3) // x^3+1 = (x+1)(x^2+x+1)
	b := NewPoly2FromCoeffs(0, 1)
	if !a.Mod(b).IsZero() {
		t.Fatal("x^3+1 mod (x+1) should be 0")
	}
}

func TestPoly2DivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("division by zero polynomial did not panic")
		}
	}()
	NewPoly2FromCoeffs(1).DivMod(Poly2{})
}

func TestPoly2EvalInField(t *testing.T) {
	// The primitive polynomial must vanish at alpha.
	for _, m := range []int{4, 8, 16} {
		f := NewField(m)
		pp := NewPoly2FromBits(uint64(f.PrimPoly()))
		if got := pp.Eval(f, f.Alpha(1)); got != 0 {
			t.Fatalf("m=%d: primPoly(alpha) = %d, want 0", m, got)
		}
		// And not at 1 (prim polys here have odd weight).
		if got := pp.Eval(f, 1); got == 0 {
			t.Fatalf("m=%d: primPoly(1) = 0 unexpectedly", m)
		}
	}
}

func TestPoly2BytesRoundTrip(t *testing.T) {
	r := stats.NewRNG(6)
	for i := 0; i < 100; i++ {
		nbits := 1 + r.Intn(300)
		data := make([]byte, (nbits+7)/8)
		for j := range data {
			data[j] = byte(r.Intn(256))
		}
		// Zero the padding bits beyond nbits so round-trip is exact.
		if pad := len(data)*8 - nbits; pad > 0 {
			data[len(data)-1] &= 0xff << uint(pad)
		}
		p := NewPoly2FromBytes(data, nbits)
		back := p.Bytes(nbits)
		for j := range data {
			if back[j] != data[j] {
				t.Fatalf("byte %d mismatch: %x vs %x (nbits=%d)", j, back[j], data[j], nbits)
			}
		}
	}
}

func TestPoly2BytesMSBConvention(t *testing.T) {
	// 0x80 in one byte = highest bit set = coefficient of x^7.
	p := NewPoly2FromBytes([]byte{0x80}, 8)
	if !p.Equal(NewPoly2FromCoeffs(7)) {
		t.Fatalf("MSB convention broken: %v", p)
	}
	// 0x01 = coefficient of x^0.
	p = NewPoly2FromBytes([]byte{0x01}, 8)
	if !p.Equal(NewPoly2FromCoeffs(0)) {
		t.Fatalf("LSB convention broken: %v", p)
	}
}

func TestPoly2CloneIndependence(t *testing.T) {
	p := NewPoly2FromCoeffs(0, 5)
	q := p.Clone()
	q.w[0] = 0xffff
	if p.Coeff(2) != 0 {
		t.Fatal("clone shares storage with original")
	}
}
