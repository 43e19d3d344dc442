package gf

import (
	"testing"
	"testing/quick"

	"xlnand/internal/stats"
)

func TestNewFieldAllSupportedDegrees(t *testing.T) {
	for m := 2; m <= 16; m++ {
		f := NewField(m)
		if f.M() != m {
			t.Fatalf("m=%d: M() = %d", m, f.M())
		}
		if f.Size() != 1<<uint(m) {
			t.Fatalf("m=%d: Size() = %d", m, f.Size())
		}
		if f.N() != (1<<uint(m))-1 {
			t.Fatalf("m=%d: N() = %d", m, f.N())
		}
	}
}

func TestNewFieldPanicsOnBadDegree(t *testing.T) {
	for _, m := range []int{0, 1, 17, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewField(%d) did not panic", m)
				}
			}()
			NewField(m)
		}()
	}
}

func TestNewFieldPolyRejectsNonPrimitive(t *testing.T) {
	// x^4 + x^3 + x^2 + x + 1 is irreducible but NOT primitive over GF(2)
	// (its roots have order 5, not 15).
	if _, err := NewFieldPoly(4, 0x1f); err == nil {
		t.Fatal("non-primitive polynomial accepted")
	}
	// x^4 + x^2 + 1 = (x^2+x+1)^2 is reducible.
	if _, err := NewFieldPoly(4, 0x15); err == nil {
		t.Fatal("reducible polynomial accepted")
	}
	// Wrong degree bit.
	if _, err := NewFieldPoly(4, 0x7); err == nil {
		t.Fatal("degree-2 polynomial accepted for m=4")
	}
}

func TestAlphaPowersCycle(t *testing.T) {
	f := NewField(8)
	if f.Alpha(0) != 1 {
		t.Fatal("alpha^0 != 1")
	}
	if f.Alpha(f.N()) != 1 {
		t.Fatal("alpha^n != 1")
	}
	if f.Alpha(-1) != f.Inv(f.Alpha(1)) {
		t.Fatal("alpha^-1 != inverse of alpha")
	}
}

func TestLogExpRoundTrip(t *testing.T) {
	f := NewField(10)
	for x := uint32(1); x <= uint32(f.N()); x++ {
		if f.Alpha(f.Log(x)) != x {
			t.Fatalf("exp(log(%d)) != %d", x, x)
		}
	}
}

func TestLogZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log(0) did not panic")
		}
	}()
	NewField(4).Log(0)
}

// fieldAxioms checks the field axioms on random triples for a given m.
func fieldAxioms(t *testing.T, m int) {
	t.Helper()
	f := NewField(m)
	r := stats.NewRNG(uint64(m) * 977)
	randElem := func() uint32 { return uint32(r.Intn(f.Size())) }
	for i := 0; i < 2000; i++ {
		a, b, c := randElem(), randElem(), randElem()
		if f.Mul(a, b) != f.Mul(b, a) {
			t.Fatalf("m=%d: mul not commutative for %d,%d", m, a, b)
		}
		if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
			t.Fatalf("m=%d: mul not associative", m)
		}
		if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
			t.Fatalf("m=%d: distributivity fails", m)
		}
		if f.Mul(a, 1) != a {
			t.Fatalf("m=%d: 1 not multiplicative identity", m)
		}
		if f.Add(a, a) != 0 {
			t.Fatalf("m=%d: characteristic != 2", m)
		}
		if a != 0 && f.Mul(a, f.Inv(a)) != 1 {
			t.Fatalf("m=%d: a * a^-1 != 1 for a=%d", m, a)
		}
	}
}

func TestFieldAxiomsSmall(t *testing.T)  { fieldAxioms(t, 4) }
func TestFieldAxiomsMedium(t *testing.T) { fieldAxioms(t, 8) }
func TestFieldAxiomsBCH(t *testing.T)    { fieldAxioms(t, 16) }

func TestMulMatchesCarrylessReference(t *testing.T) {
	// Cross-check table-based Mul against a bitwise shift-and-reduce
	// reference implementation.
	f := NewField(8)
	ref := func(a, b uint32) uint32 {
		var acc uint32
		for b != 0 {
			if b&1 == 1 {
				acc ^= a
			}
			b >>= 1
			a <<= 1
			if a&0x100 != 0 {
				a ^= f.PrimPoly()
			}
		}
		return acc
	}
	for a := uint32(0); a < 256; a += 7 {
		for b := uint32(0); b < 256; b += 5 {
			if got, want := f.Mul(a, b), ref(a, b); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMulAlphaMatchesMul(t *testing.T) {
	f := NewField(16)
	r := stats.NewRNG(99)
	for i := 0; i < 5000; i++ {
		x := uint32(r.Intn(f.Size()))
		e := r.Intn(f.N())
		// e drawn from [0, N) is pre-reduced, the MulAlphaN contract.
		if got, want := f.MulAlphaN(x, e), f.Mul(x, f.Alpha(e)); got != want {
			t.Fatalf("MulAlphaN(%d,%d) = %d, want %d", x, e, got, want)
		}
	}
}

func TestDivMulRoundTrip(t *testing.T) {
	f := NewField(12)
	r := stats.NewRNG(123)
	for i := 0; i < 5000; i++ {
		a := uint32(r.Intn(f.Size()))
		b := uint32(1 + r.Intn(f.N()))
		if f.Mul(f.Div(a, b), b) != a {
			t.Fatalf("(a/b)*b != a for a=%d b=%d", a, b)
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	NewField(4).Div(3, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	NewField(4).Inv(0)
}

func TestPow(t *testing.T) {
	f := NewField(8)
	a := f.Alpha(5)
	if f.Pow(a, 0) != 1 {
		t.Fatal("a^0 != 1")
	}
	if f.Pow(a, 1) != a {
		t.Fatal("a^1 != a")
	}
	if f.Pow(a, 3) != f.Mul(a, f.Mul(a, a)) {
		t.Fatal("a^3 mismatch")
	}
	if f.Pow(a, -1) != f.Inv(a) {
		t.Fatal("a^-1 != inverse")
	}
	if f.Pow(0, 0) != 1 {
		t.Fatal("0^0 != 1 (convention)")
	}
	if f.Pow(0, 5) != 0 {
		t.Fatal("0^5 != 0")
	}
}

func TestPowMatchesRepeatedMul(t *testing.T) {
	f := NewField(9)
	f2 := func(a uint32, e int) uint32 {
		acc := uint32(1)
		for i := 0; i < e; i++ {
			acc = f.Mul(acc, a)
		}
		return acc
	}
	r := stats.NewRNG(7)
	for i := 0; i < 300; i++ {
		a := uint32(1 + r.Intn(f.N()))
		e := r.Intn(40)
		if got, want := f.Pow(a, e), f2(a, e); got != want {
			t.Fatalf("Pow(%d,%d) = %d, want %d", a, e, got, want)
		}
	}
}

func TestFrobeniusIsAutomorphism(t *testing.T) {
	// (a+b)^2 = a^2 + b^2 in characteristic 2.
	f := NewField(16)
	prop := func(aRaw, bRaw uint16) bool {
		a, b := uint32(aRaw), uint32(bRaw)
		return f.Sqr(f.Add(a, b)) == f.Add(f.Sqr(a), f.Sqr(b))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceLinearAndBinary(t *testing.T) {
	f := NewField(8)
	for a := uint32(0); a < 256; a++ {
		tr := f.Trace(a)
		if tr != 0 && tr != 1 {
			t.Fatalf("Trace(%d) = %d, not in GF(2)", a, tr)
		}
	}
	// Linearity on random pairs.
	r := stats.NewRNG(55)
	for i := 0; i < 1000; i++ {
		a := uint32(r.Intn(256))
		b := uint32(r.Intn(256))
		if f.Trace(a^b) != f.Trace(a)^f.Trace(b) {
			t.Fatalf("trace not additive at %d,%d", a, b)
		}
	}
	// Trace takes each value on exactly half the field.
	ones := 0
	for a := uint32(0); a < 256; a++ {
		ones += int(f.Trace(a))
	}
	if ones != 128 {
		t.Fatalf("trace balance = %d, want 128", ones)
	}
}
