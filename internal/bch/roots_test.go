package bch

// Equivalence of the algebraic root finder with the textbook Chien scan:
// same verdict and same position set on Berlekamp-Massey locators within
// and beyond capability, on hand-built adversarial locators, and on every
// locator of degree <= 3 over GF(2^4).

import (
	"fmt"
	"slices"
	"testing"

	"xlnand/internal/gf"
	"xlnand/internal/stats"
)

// scanRoots is the oracle: evaluate lambda at alpha^-d for every codeword
// degree d = 0..nbits-1 (Horner, no tiles, no early exit) and accept iff
// the roots found number deg(lambda). Positions come back ascending.
func scanRoots(f *gf.Field, lambda []uint32, nbits int) (positions []int, ok bool) {
	deg := len(lambda) - 1
	for deg > 0 && lambda[deg] == 0 {
		deg--
	}
	if deg <= 0 {
		return nil, true
	}
	if nbits > f.N() {
		return nil, false
	}
	for d := nbits - 1; d >= 0; d-- {
		x := f.Alpha(-d)
		var y uint32
		for i := deg; i >= 0; i-- {
			y = f.Mul(y, x) ^ lambda[i]
		}
		if y == 0 {
			positions = append(positions, nbits-1-d)
		}
	}
	return positions, len(positions) == deg
}

// checkAgainstScan runs both root finders on one locator.
func checkAgainstScan(t *testing.T, f *gf.Field, lambda []uint32, nbits int) (positions []int, ok bool) {
	t.Helper()
	want, wantOK := scanRoots(f, lambda, nbits)
	got, ok := ChienSearch(f, lambda, nbits)
	if ok != wantOK {
		t.Fatalf("lambda=%v nbits=%d: ok=%v, scan says %v (roots %v)", lambda, nbits, ok, wantOK, want)
	}
	if ok && !slices.Equal(got, want) {
		t.Fatalf("lambda=%v nbits=%d: positions %v, scan found %v", lambda, nbits, got, want)
	}
	return got, ok
}

// errorLocator returns the Berlekamp-Massey locator of an error pattern
// at the given bit indices of an nbits-bit word, from its 2t syndromes
// S_j = sum alpha^(j·deg) (a codeword contributes nothing).
func errorLocator(f *gf.Field, nbits, t int, errs []int) ([]uint32, int) {
	syn := make([]uint32, 2*t)
	for _, p := range errs {
		for j := range syn {
			syn[j] ^= f.Alpha((j + 1) * (nbits - 1 - p) % f.N())
		}
	}
	return BerlekampMassey(f, syn)
}

func TestRootsMatchScan(t *testing.T) {
	m, k, _, _ := PageCodecParams()
	f := gf.NewField(m)
	for _, tcap := range []int{3, 6, 16, 65} {
		nbits := k + m*tcap
		r := stats.NewRNG(0x7007 + uint64(tcap))
		work := make([]uint16, rootScratchLen(m, tcap))
		for nerr := 0; nerr <= tcap+8; nerr++ {
			errs := r.SampleK(nbits, nerr)
			lambda, L := errorLocator(f, nbits, tcap, errs)
			got, ok := checkAgainstScan(t, f, lambda, nbits)
			if nerr <= tcap {
				slices.Sort(errs)
				if !ok || L != nerr || !slices.Equal(got, errs) {
					t.Fatalf("t=%d: %d errors at %v located as %v (ok=%v, L=%d)", tcap, nerr, errs, got, ok, L)
				}
			}
			if len(lambda)-1 <= tcap {
				// The decoder's path: caller-owned scratch sized for t.
				pos, ok2 := locatorRoots(f, lambda, nbits, make([]int, 0, tcap), work)
				if ok2 != ok || ok && !slices.Equal(pos, got) {
					t.Fatalf("t=%d errs=%d: kernel on shared scratch (%v, %v) != wrapper (%v, %v)", tcap, nerr, pos, ok2, got, ok)
				}
			}
		}
	}
}

// fromRoots expands scale · prod (x + r) into ascending coefficients.
func fromRoots(f *gf.Field, scale uint32, roots ...uint32) []uint32 {
	p := gf.NewPolyM(f, scale)
	for _, r := range roots {
		p = p.MulXPlusConst(r)
	}
	return p.Coeffs
}

// polyMul multiplies two ascending-coefficient polynomials.
func polyMul(f *gf.Field, a, b []uint32) []uint32 {
	return gf.NewPolyM(f, a...).Mul(gf.NewPolyM(f, b...)).Coeffs
}

func TestRootsAdversarialLocators(t *testing.T) {
	f := gf.NewField(16)
	N := f.N()
	const nbits = 32768 + 16*65
	at := func(d int) uint32 { return f.Alpha(-d) } // the root naming degree d
	// x^2 + x + c is irreducible over GF(2^m) exactly when Tr(c) = 1.
	var irred []uint32
	for c := uint32(2); irred == nil; c++ {
		if f.Trace(c) == 1 {
			irred = []uint32{c, 1, 1}
		}
	}
	cases := []struct {
		name   string
		lambda []uint32
		nbits  int
		wantOK bool
	}{
		{"distinct in range", fromRoots(f, 0x1234, at(0), at(1), at(17), at(nbits-1)), nbits, true},
		{"root at d=0 only", fromRoots(f, 1, at(0)), nbits, true},
		{"root at d=0 among others", fromRoots(f, 7, at(5), at(0), at(33000)), nbits, true},
		{"repeated root", fromRoots(f, 1, at(9), at(9), at(400)), nbits, false},
		{"repeated root, nothing else", fromRoots(f, 3, at(9), at(9)), nbits, false},
		{"root squared and cubed", fromRoots(f, 1, at(2), at(2), at(2), at(3), at(3)), nbits, false},
		{"irreducible quadratic", irred, nbits, false},
		{"irreducible quadratic factor", polyMul(f, irred, fromRoots(f, 5, at(100), at(2000))), nbits, false},
		{"root just outside the range", fromRoots(f, 1, at(4), at(nbits)), nbits, false},
		{"root at the far end of the field", fromRoots(f, 1, at(4), at(N-1)), nbits, false},
		{"lone root outside the range", fromRoots(f, 9, at(nbits+3)), nbits, false},
		{"same roots, full-length code", fromRoots(f, 1, at(4), at(N-1), at(nbits)), N, true},
		{"nbits beyond the field", fromRoots(f, 1, at(4), at(8)), N + 1, false},
		{"lambda_0 = 0", polyMul(f, []uint32{0, 1}, fromRoots(f, 1, at(3), at(4))), nbits, false},
		{"lambda_0 = 0, degree 1", []uint32{0, 5}, nbits, false},
		{"zero polynomial", []uint32{0, 0, 0}, nbits, true},
		{"constant", []uint32{5}, nbits, true},
		{"constant with trailing zeros", []uint32{5, 0, 0, 0}, nbits, true},
		{"trailing zero coefficients", append(fromRoots(f, 1, at(3), at(4)), 0, 0, 0), nbits, true},
		// x^3 + alpha^3 = (x+alpha)(x+alpha·w)(x+alpha·w^2), w a cube
		// root of unity (3 | 2^16-1): every interior coefficient zero.
		{"zero interior coefficients, full length", []uint32{f.Alpha(3), 0, 0, 1}, N, true},
		{"zero interior coefficients, shortened", []uint32{f.Alpha(3), 0, 0, 1}, nbits, false},
		{"x^5 + 1", []uint32{1, 0, 0, 0, 0, 1}, N, true},
		{"x^2 + 1 = (x+1)^2", []uint32{1, 0, 1}, nbits, false},
		{"x^7 + 1: 7 does not divide 2^16-1", []uint32{1, 0, 0, 0, 0, 0, 0, 1}, N, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pos, ok := checkAgainstScan(t, f, tc.lambda, tc.nbits)
			if ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v (positions %v)", ok, tc.wantOK, pos)
			}
			if ok && !slices.IsSorted(pos) {
				t.Fatalf("positions %v not ascending", pos)
			}
		})
	}
}

// TestRootsExhaustiveGF16 sweeps every coefficient vector of length 4 over
// GF(2^4) — all locators of degree <= 3, with every pattern of zero, low
// and trailing coefficients — at the full length and two shortenings the
// toy codes of DecodePoly use.
func TestRootsExhaustiveGF16(t *testing.T) {
	f := gf.NewField(4)
	for _, nbits := range []int{15, 11, 7} {
		for v := 0; v < 1<<16; v++ {
			lambda := []uint32{uint32(v & 15), uint32(v >> 4 & 15), uint32(v >> 8 & 15), uint32(v >> 12)}
			checkAgainstScan(t, f, lambda, nbits)
		}
	}
}

// rootsBenchLocator is a degree-nerr locator of nerr errors spread over
// the t = 65 page codeword.
func rootsBenchLocator(f *gf.Field, nbits, nerr int) []uint32 {
	r := stats.NewRNG(0xc41e + uint64(nerr))
	lambda, L := errorLocator(f, nbits, 65, r.SampleK(nbits, nerr))
	if L != nerr || len(lambda)-1 != nerr {
		panic(fmt.Sprintf("locator degree %d (L=%d), want %d", len(lambda)-1, L, nerr))
	}
	return lambda
}

func TestLocatorRootsZeroAlloc(t *testing.T) {
	f := gf.NewField(16)
	const nbits = 32768 + 16*65
	lambda := rootsBenchLocator(f, nbits, 18)
	work := make([]uint16, rootScratchLen(16, 65))
	pos := make([]int, 0, 65)
	if avg := testing.AllocsPerRun(20, func() {
		if p, ok := locatorRoots(f, lambda, nbits, pos[:0], work); !ok || len(p) != 18 {
			t.Fatalf("found %d roots (ok=%v), want 18", len(p), ok)
		}
	}); avg != 0 {
		t.Fatalf("locatorRoots allocates %.1f times a call", avg)
	}
}

// BenchmarkRoots isolates the root finder on the t = 65 page code at the
// locator degrees the life stages produce: 2-8 mid-life, ~18 a read at
// end of life, 65 at the capability limit.
func BenchmarkRoots(b *testing.B) {
	f := gf.NewField(16)
	const nbits = 32768 + 16*65
	work := make([]uint16, rootScratchLen(16, 65))
	pos := make([]int, 0, 65)
	for _, nerr := range []int{2, 4, 8, 18, 32, 65} {
		lambda := rootsBenchLocator(f, nbits, nerr)
		b.Run(fmt.Sprintf("errs=%d", nerr), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if p, ok := locatorRoots(f, lambda, nbits, pos[:0], work); !ok || len(p) != nerr {
					b.Fatalf("found %d roots (ok=%v), want %d", len(p), ok, nerr)
				}
			}
		})
	}
}
