package bch

import (
	"testing"
	"testing/quick"

	"xlnand/internal/gf"
	"xlnand/internal/stats"
)

// enumerateCodewords yields every codeword of a small code by encoding
// all 2^k messages.
func enumerateCodewords(t *testing.T, c *Code) []gf.Poly2 {
	t.Helper()
	if c.K > 16 {
		t.Fatalf("enumeration only for toy codes (k=%d)", c.K)
	}
	out := make([]gf.Poly2, 0, 1<<uint(c.K))
	for m := 0; m < 1<<uint(c.K); m++ {
		var exps []int
		for b := 0; b < c.K; b++ {
			if m>>uint(b)&1 == 1 {
				exps = append(exps, b)
			}
		}
		out = append(out, EncodePoly(c, gf.NewPoly2FromCoeffs(exps...)))
	}
	return out
}

func TestMinimumDistanceBCH15_7(t *testing.T) {
	// BCH(15,7,t=2) has designed distance 5; its true minimum distance
	// is also 5. Exhaustive check over all 128 codewords.
	c, err := NewCode(Params{M: 4, K: 7, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	minW := c.CodewordBits() + 1
	for _, cw := range enumerateCodewords(t, c) {
		if cw.IsZero() {
			continue
		}
		if w := cw.Weight(); w < minW {
			minW = w
		}
	}
	if minW != 5 {
		t.Fatalf("minimum distance = %d, want 5", minW)
	}
}

func TestMinimumDistanceHamming15_11(t *testing.T) {
	// t=1 BCH over GF(2^4) is Hamming(15,11): minimum distance 3.
	c, err := NewCode(Params{M: 4, K: 11, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	minW := c.CodewordBits() + 1
	for _, cw := range enumerateCodewords(t, c) {
		if cw.IsZero() {
			continue
		}
		if w := cw.Weight(); w < minW {
			minW = w
		}
	}
	if minW != 3 {
		t.Fatalf("minimum distance = %d, want 3", minW)
	}
}

func TestCodeLinearity(t *testing.T) {
	// The sum of any two codewords is a codeword (zero syndromes).
	c := mkCode(t, 5)
	enc := NewEncoder(c)
	r := stats.NewRNG(300)
	for trial := 0; trial < 50; trial++ {
		a, err := enc.EncodeCodeword(randMsg(r, c.K/8))
		if err != nil {
			t.Fatal(err)
		}
		b, err := enc.EncodeCodeword(randMsg(r, c.K/8))
		if err != nil {
			t.Fatal(err)
		}
		sum := gf.NewPoly2FromBytes(a, c.CodewordBits()).
			Add(gf.NewPoly2FromBytes(b, c.CodewordBits()))
		if !AllZero(SyndromesPoly(c.Field, sum, c.T)) {
			t.Fatal("sum of codewords is not a codeword")
		}
	}
}

func TestEncoderSystematic(t *testing.T) {
	// The first k bits of the codeword are the message, untouched.
	c := mkCode(t, 6)
	enc := NewEncoder(c)
	r := stats.NewRNG(301)
	for trial := 0; trial < 30; trial++ {
		msg := randMsg(r, c.K/8)
		cw, err := enc.EncodeCodeword(msg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range msg {
			if cw[i] != msg[i] {
				t.Fatal("encoder not systematic")
			}
		}
	}
}

func TestDecodeIdempotent(t *testing.T) {
	c := mkCode(t, 4)
	enc, dec := NewEncoder(c), NewDecoder(c, nil)
	r := stats.NewRNG(302)
	cw, _ := enc.EncodeCodeword(randMsg(r, c.K/8))
	flipBits(cw, r.SampleK(c.CodewordBits(), 4))
	if n, err := dec.Decode(cw); err != nil || n != 4 {
		t.Fatalf("first decode: %d, %v", n, err)
	}
	if n, err := dec.Decode(cw); err != nil || n != 0 {
		t.Fatalf("second decode should be clean: %d, %v", n, err)
	}
}

func TestBurstAcrossMessageParityBoundary(t *testing.T) {
	c := mkCode(t, 8)
	enc, dec := NewEncoder(c), NewDecoder(c, nil)
	r := stats.NewRNG(303)
	msg := randMsg(r, c.K/8)
	cw, _ := enc.EncodeCodeword(msg)
	want := append([]byte(nil), cw...)
	// 6-bit burst straddling the k boundary.
	positions := make([]int, 6)
	for i := range positions {
		positions[i] = c.K - 3 + i
	}
	flipBits(cw, positions)
	n, err := dec.Decode(cw)
	if err != nil || n != 6 {
		t.Fatalf("boundary burst: n=%d err=%v", n, err)
	}
	for i := range want {
		if cw[i] != want[i] {
			t.Fatal("boundary burst not corrected")
		}
	}
}

func TestQuickRandomErrorsWithinT(t *testing.T) {
	// Property: for random messages and any error count e <= t, the
	// decoder restores the exact codeword.
	c := mkCode(t, 6)
	enc, dec := NewEncoder(c), NewDecoder(c, nil)
	r := stats.NewRNG(304)
	prop := func(seed uint64, eRaw uint8) bool {
		rr := stats.NewRNG(seed)
		msg := randMsg(rr, c.K/8)
		cw, err := enc.EncodeCodeword(msg)
		if err != nil {
			return false
		}
		want := append([]byte(nil), cw...)
		e := int(eRaw) % (c.T + 1)
		flipBits(cw, rr.SampleK(c.CodewordBits(), e))
		n, err := dec.Decode(cw)
		if err != nil || n != e {
			return false
		}
		for i := range want {
			if cw[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: nil}
	_ = r
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAllZeroMessageCodeword(t *testing.T) {
	// The zero message encodes to the zero codeword (linearity corner).
	c := mkCode(t, 3)
	enc := NewEncoder(c)
	cw, err := enc.EncodeCodeword(make([]byte, c.K/8))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range cw {
		if b != 0 {
			t.Fatal("zero message has nonzero codeword")
		}
	}
	// And still corrects errors against the zero word.
	dec := NewDecoder(c, nil)
	flipBits(cw, []int{1, 77, 130})
	if n, err := dec.Decode(cw); err != nil || n != 3 {
		t.Fatalf("zero-codeword decode: %d, %v", n, err)
	}
}

func TestParityLengthMatchesGeneratorDegreeAcrossT(t *testing.T) {
	codec, err := NewCodec(16, 1024, 1, 12, DefaultHWConfig())
	if err != nil {
		t.Fatal(err)
	}
	for tc := 1; tc <= 12; tc++ {
		code, err := codec.Code(tc)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := codec.ParityBytes(tc)
		if err != nil {
			t.Fatal(err)
		}
		if pb*8 != code.GenDegree {
			t.Fatalf("t=%d: parity bytes %d vs deg g %d", tc, pb, code.GenDegree)
		}
	}
}

func TestGeneratorCoefficientsSymmetryCheck(t *testing.T) {
	// Spot-check a classical generator: BCH(31,16,t=3) over GF(2^5) has
	// g(x) of degree 15 with the reciprocal-symmetric weight profile of
	// the (31,16) QR-equivalent code. We assert degree and the defining
	// root property rather than a hard-coded polynomial.
	c, err := NewCode(Params{M: 5, K: 16, T: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.GenDegree != 15 {
		t.Fatalf("deg g = %d, want 15", c.GenDegree)
	}
	for i := 1; i <= 6; i++ {
		if c.Gen.Eval(c.Field, c.Field.Alpha(i)) != 0 {
			t.Fatalf("g(alpha^%d) != 0", i)
		}
	}
}
