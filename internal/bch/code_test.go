package bch

import (
	"strings"
	"testing"

	"xlnand/internal/gf"
)

func TestParamsBasics(t *testing.T) {
	p := Params{M: 16, K: 32768, T: 65}
	if p.R() != 1040 {
		t.Fatalf("R = %d, want 1040", p.R())
	}
	if p.N() != 33808 {
		t.Fatalf("N = %d, want 33808", p.N())
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("paper parameters rejected: %v", err)
	}
}

func TestParamsValidateRejects(t *testing.T) {
	bad := []Params{
		{M: 1, K: 10, T: 1},        // field too small
		{M: 17, K: 10, T: 1},       // field too large
		{M: 8, K: 0, T: 1},         // empty message
		{M: 8, K: 10, T: 0},        // no correction
		{M: 8, K: 250, T: 1},       // 250+8 > 255
		{M: 16, K: 32768, T: 2048}, // overflow the field
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", p)
		}
	}
}

func TestNewCodeSmallKnown(t *testing.T) {
	// Classic BCH(15, 7, t=2) over GF(2^4): g(x) = x^8+x^7+x^6+x^4+1.
	c, err := NewCode(Params{M: 4, K: 7, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := gf.NewPoly2FromCoeffs(0, 4, 6, 7, 8)
	if !c.Gen.Equal(want) {
		t.Fatalf("generator = %v, want %v", c.Gen, want)
	}
	if c.GenDegree != 8 {
		t.Fatalf("deg g = %d, want 8", c.GenDegree)
	}
	if c.CodewordBits() != 15 {
		t.Fatalf("codeword bits = %d, want 15", c.CodewordBits())
	}
	if off := c.Field.N() - c.CodewordBits(); off != 0 {
		t.Fatalf("BCH(15,7) should be unshortened, offset = %d", off)
	}
}

func TestNewCodeHamming(t *testing.T) {
	// t=1 BCH over GF(2^4) is the Hamming(15,11) code: g = primitive poly.
	c, err := NewCode(Params{M: 4, K: 11, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Gen.Equal(gf.NewPoly2FromCoeffs(0, 1, 4)) {
		t.Fatalf("generator = %v, want x^4 + x + 1", c.Gen)
	}
}

func TestGeneratorDividesXnMinus1(t *testing.T) {
	// g(x) must divide x^(2^m - 1) + 1 for a cyclic code.
	for _, p := range []Params{{M: 5, K: 10, T: 3}, {M: 6, K: 30, T: 4}} {
		c, err := NewCode(p)
		if err != nil {
			t.Fatal(err)
		}
		nFull := (1 << uint(p.M)) - 1
		xn1 := gf.NewPoly2FromCoeffs(0, nFull)
		if !xn1.Mod(c.Gen).IsZero() {
			t.Fatalf("%v: generator does not divide x^%d + 1", c, nFull)
		}
	}
}

func TestGeneratorHasDesignedRoots(t *testing.T) {
	// g(alpha^i) = 0 for i = 1..2t (the BCH bound's defining property).
	c, err := NewCode(Params{M: 8, K: 100, T: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2*c.T; i++ {
		if v := c.Gen.Eval(c.Field, c.Field.Alpha(i)); v != 0 {
			t.Fatalf("g(alpha^%d) = %d, want 0", i, v)
		}
	}
	// And not at alpha^0 = 1 (g would otherwise waste a factor (x+1)).
	if v := c.Gen.Eval(c.Field, 1); v == 0 {
		t.Fatal("g(1) = 0: generator contains unnecessary (x+1) factor")
	}
}

func TestPageCodeGeneratorDegrees(t *testing.T) {
	// For the paper's field every coset in range has size 16, so
	// deg g = 16·t exactly for t = 3..65.
	codec, err := NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []int{3, 14, 30, 65} {
		code, err := codec.Code(tc)
		if err != nil {
			t.Fatal(err)
		}
		if code.GenDegree != 16*tc {
			t.Fatalf("t=%d: deg g = %d, want %d", tc, code.GenDegree, 16*tc)
		}
		if off := code.Field.N() - code.CodewordBits(); off != 65535-(32768+16*tc) {
			t.Fatalf("t=%d: bad shortening offset %d", tc, off)
		}
	}
}

func TestCodeString(t *testing.T) {
	c, err := NewCode(Params{M: 4, K: 7, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := c.String()
	for _, want := range []string{"n=15", "k=7", "t=2", "GF(2^4)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
