package gf

import (
	"testing"

	"xlnand/internal/stats"
)

func randPolyM(r *stats.RNG, f *Field, maxDeg int) PolyM {
	coeffs := make([]uint32, maxDeg+1)
	for i := range coeffs {
		coeffs[i] = uint32(r.Intn(f.Size()))
	}
	return NewPolyM(f, coeffs...)
}

func TestPolyMBasics(t *testing.T) {
	f := NewField(4)
	p := NewPolyM(f, 1, 0, 3)
	if p.Degree() != 2 {
		t.Fatalf("degree = %d", p.Degree())
	}
	if p.Coeff(0) != 1 || p.Coeff(1) != 0 || p.Coeff(2) != 3 || p.Coeff(7) != 0 {
		t.Fatal("bad coefficients")
	}
	if NewPolyM(f).Degree() != -1 {
		t.Fatal("zero poly degree != -1")
	}
	if !NewPolyM(f, 0, 0).IsZero() {
		t.Fatal("trailing zeros not trimmed")
	}
}

func TestPolyMAddScale(t *testing.T) {
	f := NewField(8)
	r := stats.NewRNG(10)
	for i := 0; i < 200; i++ {
		p := randPolyM(r, f, 20)
		if !p.Add(p).IsZero() {
			t.Fatal("p + p != 0")
		}
		if !p.Scale(1).Equal(p) {
			t.Fatal("scale by 1 changed polynomial")
		}
		if !p.Scale(0).IsZero() {
			t.Fatal("scale by 0 not zero")
		}
		c := uint32(1 + r.Intn(f.N()))
		// (c·p)(x) == c·p(x) at a random point
		x := uint32(r.Intn(f.Size()))
		if p.Scale(c).Eval(x) != f.Mul(c, p.Eval(x)) {
			t.Fatal("scale does not commute with eval")
		}
	}
}

func TestPolyMMulEvalHomomorphism(t *testing.T) {
	// (p*q)(x) == p(x) * q(x)
	f := NewField(8)
	r := stats.NewRNG(11)
	for i := 0; i < 300; i++ {
		p := randPolyM(r, f, 12)
		q := randPolyM(r, f, 9)
		x := uint32(r.Intn(f.Size()))
		if p.Mul(q).Eval(x) != f.Mul(p.Eval(x), q.Eval(x)) {
			t.Fatal("mul-eval homomorphism fails")
		}
	}
}

func TestPolyMMulXPlusConst(t *testing.T) {
	f := NewField(8)
	r := stats.NewRNG(12)
	for i := 0; i < 200; i++ {
		p := randPolyM(r, f, 10)
		c := uint32(r.Intn(f.Size()))
		viaMul := p.Mul(NewPolyM(f, c, 1))
		if !p.MulXPlusConst(c).Equal(viaMul) {
			t.Fatal("MulXPlusConst != Mul by (x + c)")
		}
		// The product must vanish at x = c.
		if got := p.MulXPlusConst(c).Eval(c); got != 0 && !p.IsZero() {
			// p(c)*(c+c) = p(c)*0 = 0 always
			t.Fatalf("(x+c)·p does not vanish at c: %d", got)
		}
	}
}

func TestPolyMToPoly2(t *testing.T) {
	f := NewField(4)
	p := NewPolyM(f, 1, 0, 1, 1)
	q := p.ToPoly2()
	if !q.Equal(NewPoly2FromCoeffs(0, 2, 3)) {
		t.Fatalf("conversion mismatch: %v", q)
	}
}

func TestPolyMToPoly2PanicsOnNonBinary(t *testing.T) {
	f := NewField(4)
	defer func() {
		if recover() == nil {
			t.Fatal("ToPoly2 with coefficient 3 did not panic")
		}
	}()
	NewPolyM(f, 1, 3).ToPoly2()
}

func TestPolyMEvalHorner(t *testing.T) {
	f := NewField(8)
	// p(x) = 2 + 3x + x^2 at x=alpha: check against manual expansion.
	a := f.Alpha(1)
	p := NewPolyM(f, 2, 3, 1)
	want := f.Add(f.Add(2, f.Mul(3, a)), f.Mul(a, a))
	if got := p.Eval(a); got != want {
		t.Fatalf("Eval = %d, want %d", got, want)
	}
	if got := p.Eval(0); got != 2 {
		t.Fatalf("Eval(0) = %d, want constant term 2", got)
	}
}
