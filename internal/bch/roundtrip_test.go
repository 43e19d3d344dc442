package bch

import (
	"bytes"
	"errors"
	"testing"

	"xlnand/internal/gf"
	"xlnand/internal/stats"
)

// mkCode builds a small byte-aligned code for round-trip testing:
// GF(2^8), k = 128 bits (16 bytes), r = 8t bits.
func mkCode(t *testing.T, tcap int) *Code {
	t.Helper()
	c, err := NewCode(Params{M: 8, K: 128, T: tcap})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randMsg(r *stats.RNG, bytes int) []byte {
	msg := make([]byte, bytes)
	for i := range msg {
		msg[i] = byte(r.Intn(256))
	}
	return msg
}

func flipBits(cw []byte, positions []int) {
	for _, p := range positions {
		cw[p/8] ^= 1 << uint(7-p%8)
	}
}

func TestEncodeMatchesPolyReference(t *testing.T) {
	c := mkCode(t, 4)
	enc := NewEncoder(c)
	r := stats.NewRNG(71)
	for trial := 0; trial < 50; trial++ {
		msg := randMsg(r, c.K/8)
		cw, err := enc.EncodeCodeword(msg)
		if err != nil {
			t.Fatal(err)
		}
		ref := EncodePoly(c, gf.NewPoly2FromBytes(msg, c.K))
		if !ref.Equal(gf.NewPoly2FromBytes(cw, c.CodewordBits())) {
			t.Fatalf("trial %d: byte encoder disagrees with polynomial reference", trial)
		}
	}
}

func TestEncodedCodewordIsMultipleOfGenerator(t *testing.T) {
	c := mkCode(t, 5)
	enc := NewEncoder(c)
	r := stats.NewRNG(72)
	for trial := 0; trial < 50; trial++ {
		cw, err := enc.EncodeCodeword(randMsg(r, c.K/8))
		if err != nil {
			t.Fatal(err)
		}
		p := gf.NewPoly2FromBytes(cw, c.CodewordBits())
		if !p.Mod(c.Gen).IsZero() {
			t.Fatalf("trial %d: codeword not divisible by g(x)", trial)
		}
	}
}

func TestEncodeRejectsBadLength(t *testing.T) {
	c := mkCode(t, 3)
	enc := NewEncoder(c)
	if _, err := enc.EncodeCodeword(make([]byte, 5)); err == nil {
		t.Fatal("wrong-length message accepted")
	}
}

func TestDecodeCleanCodeword(t *testing.T) {
	c := mkCode(t, 4)
	enc, dec := NewEncoder(c), NewDecoder(c, nil)
	r := stats.NewRNG(73)
	cw, _ := enc.EncodeCodeword(randMsg(r, c.K/8))
	orig := append([]byte(nil), cw...)
	n, err := dec.Decode(cw)
	if err != nil || n != 0 {
		t.Fatalf("clean decode: n=%d err=%v", n, err)
	}
	if !bytes.Equal(cw, orig) {
		t.Fatal("clean decode modified the codeword")
	}
}

func TestRoundTripAllErrorCounts(t *testing.T) {
	// Every error count e in [0, t] must be corrected exactly.
	for _, tcap := range []int{1, 2, 4, 8} {
		c := mkCode(t, tcap)
		enc, dec := NewEncoder(c), NewDecoder(c, nil)
		r := stats.NewRNG(uint64(100 + tcap))
		nbits := c.CodewordBits()
		for e := 0; e <= tcap; e++ {
			for trial := 0; trial < 20; trial++ {
				msg := randMsg(r, c.K/8)
				cw, err := enc.EncodeCodeword(msg)
				if err != nil {
					t.Fatal(err)
				}
				want := append([]byte(nil), cw...)
				flipBits(cw, r.SampleK(nbits, e))
				n, err := dec.Decode(cw)
				if err != nil {
					t.Fatalf("t=%d e=%d trial=%d: decode failed: %v", tcap, e, trial, err)
				}
				if n != e {
					t.Fatalf("t=%d e=%d: corrected %d errors", tcap, e, n)
				}
				if !bytes.Equal(cw, want) {
					t.Fatalf("t=%d e=%d: corrected codeword differs from original", tcap, e)
				}
			}
		}
	}
}

func TestErrorsInParityAreCorrected(t *testing.T) {
	c := mkCode(t, 4)
	enc, dec := NewEncoder(c), NewDecoder(c, nil)
	r := stats.NewRNG(75)
	msg := randMsg(r, c.K/8)
	cw, _ := enc.EncodeCodeword(msg)
	want := append([]byte(nil), cw...)
	// Flip bits only inside the parity region.
	parityStart := c.K
	flipBits(cw, []int{parityStart, parityStart + 7, c.CodewordBits() - 1})
	n, err := dec.Decode(cw)
	if err != nil || n != 3 {
		t.Fatalf("parity-error decode: n=%d err=%v", n, err)
	}
	if !bytes.Equal(cw, want) {
		t.Fatal("parity errors not corrected in place")
	}
}

func TestBurstErrorsWithinT(t *testing.T) {
	c := mkCode(t, 8)
	enc, dec := NewEncoder(c), NewDecoder(c, nil)
	r := stats.NewRNG(76)
	msg := randMsg(r, c.K/8)
	cw, _ := enc.EncodeCodeword(msg)
	want := append([]byte(nil), cw...)
	// 8 consecutive bit errors (a full byte wiped).
	start := 40
	positions := make([]int, 8)
	for i := range positions {
		positions[i] = start + i
	}
	flipBits(cw, positions)
	n, err := dec.Decode(cw)
	if err != nil || n != 8 {
		t.Fatalf("burst decode: n=%d err=%v", n, err)
	}
	if !bytes.Equal(cw, want) {
		t.Fatal("burst not corrected")
	}
}

func TestUncorrectableDetected(t *testing.T) {
	// With e = t+1 ... 2t errors, the decoder must not return corrupted
	// data silently: it must either report ErrUncorrectable or (rare for
	// small codes) miscorrect to another codeword — in which case the
	// syndrome re-check keeps quiet. For this geometry we assert the
	// common path: uncorrectable detection.
	c := mkCode(t, 3)
	enc, dec := NewEncoder(c), NewDecoder(c, nil)
	r := stats.NewRNG(77)
	detected, miscorrected := 0, 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		msg := randMsg(r, c.K/8)
		cw, _ := enc.EncodeCodeword(msg)
		flipBits(cw, r.SampleK(c.CodewordBits(), c.T+1))
		dirty := append([]byte(nil), cw...)
		n, err := dec.Decode(cw)
		if errors.Is(err, ErrUncorrectable) {
			detected++
			if !bytes.Equal(cw, dirty) {
				t.Fatal("ErrUncorrectable but codeword was modified")
			}
			continue
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		// Miscorrection: decoder landed on a different valid codeword.
		miscorrected++
		if n > c.T {
			t.Fatalf("claimed to correct %d > t errors", n)
		}
	}
	if detected == 0 {
		t.Fatal("no uncorrectable pattern detected in any trial")
	}
	if miscorrected > trials/2 {
		t.Fatalf("implausibly high miscorrection rate: %d/%d", miscorrected, trials)
	}
}

func TestUncorrectableLeavesCodewordIntact(t *testing.T) {
	c := mkCode(t, 2)
	enc, dec := NewEncoder(c), NewDecoder(c, nil)
	r := stats.NewRNG(78)
	for trial := 0; trial < 100; trial++ {
		msg := randMsg(r, c.K/8)
		cw, _ := enc.EncodeCodeword(msg)
		flipBits(cw, r.SampleK(c.CodewordBits(), 2*c.T+1))
		dirty := append([]byte(nil), cw...)
		if _, err := dec.Decode(cw); errors.Is(err, ErrUncorrectable) {
			if !bytes.Equal(cw, dirty) {
				t.Fatal("ErrUncorrectable but codeword was modified")
			}
		}
	}
}

func TestDecodeRejectsBadLength(t *testing.T) {
	c := mkCode(t, 3)
	dec := NewDecoder(c, nil)
	if _, err := dec.Decode(make([]byte, 3)); err == nil {
		t.Fatal("wrong-length codeword accepted")
	}
}

func TestPolyDecodeToyCodeNonAligned(t *testing.T) {
	// BCH(15, 7, t=2): not byte aligned; exercise the polynomial path.
	c, err := NewCode(Params{M: 4, K: 7, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(79)
	for trial := 0; trial < 200; trial++ {
		var exps []int
		for e := 0; e < c.K; e++ {
			if r.Bernoulli(0.5) {
				exps = append(exps, e)
			}
		}
		msg := gf.NewPoly2FromCoeffs(exps...)
		cw := EncodePoly(c, msg)
		e := r.Intn(c.T + 1)
		errPoly := gf.Poly2{}
		for _, p := range r.SampleK(c.CodewordBits(), e) {
			errPoly = errPoly.Add(gf.NewPoly2FromCoeffs(p))
		}
		corrupted := cw.Add(errPoly)
		fixed, n, err := DecodePoly(c, corrupted)
		if err != nil {
			t.Fatalf("trial %d (e=%d): %v", trial, e, err)
		}
		if n != e || !fixed.Equal(cw) {
			t.Fatalf("trial %d: corrected %d of %d errors, match=%v", trial, n, e, fixed.Equal(cw))
		}
	}
}

func TestShortenedCodeRoundTrip(t *testing.T) {
	// Heavily shortened code over GF(2^10): n = 160+10*4 = 200 << 1023.
	c, err := NewCode(Params{M: 10, K: 160, T: 4})
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := NewEncoder(c), NewDecoder(c, nil)
	r := stats.NewRNG(80)
	for trial := 0; trial < 50; trial++ {
		msg := randMsg(r, c.K/8)
		cw, err := enc.EncodeCodeword(msg)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), cw...)
		flipBits(cw, r.SampleK(c.CodewordBits(), c.T))
		if n, err := dec.Decode(cw); err != nil || n != c.T {
			t.Fatalf("shortened decode: n=%d err=%v", n, err)
		}
		if !bytes.Equal(cw, want) {
			t.Fatal("shortened codeword not restored")
		}
	}
}

func TestErrorsAtCodewordBoundaries(t *testing.T) {
	c := mkCode(t, 4)
	enc, dec := NewEncoder(c), NewDecoder(c, nil)
	r := stats.NewRNG(81)
	msg := randMsg(r, c.K/8)
	cw, _ := enc.EncodeCodeword(msg)
	want := append([]byte(nil), cw...)
	nbits := c.CodewordBits()
	flipBits(cw, []int{0, 1, nbits - 2, nbits - 1}) // first and last two bits
	n, err := dec.Decode(cw)
	if err != nil || n != 4 {
		t.Fatalf("boundary decode: n=%d err=%v", n, err)
	}
	if !bytes.Equal(cw, want) {
		t.Fatal("boundary errors not corrected")
	}
}

func TestSyndromeTableMatchesPolyReference(t *testing.T) {
	c := mkCode(t, 6)
	enc := NewEncoder(c)
	sc := NewSyndromeCalc(c.Field)
	r := stats.NewRNG(82)
	for trial := 0; trial < 30; trial++ {
		cw, _ := enc.EncodeCodeword(randMsg(r, c.K/8))
		flipBits(cw, r.SampleK(c.CodewordBits(), r.Intn(10)))
		got := sc.SyndromesInto(make([]uint32, 2*c.T), cw, c.T)
		want := SyndromesPoly(c.Field, gf.NewPoly2FromBytes(cw, c.CodewordBits()), c.T)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: S_%d = %d, want %d", trial, j+1, got[j], want[j])
			}
		}
	}
}

func TestEvenSyndromesAreSquaresOfHalf(t *testing.T) {
	c := mkCode(t, 5)
	enc := NewEncoder(c)
	sc := NewSyndromeCalc(c.Field)
	r := stats.NewRNG(83)
	cw, _ := enc.EncodeCodeword(randMsg(r, c.K/8))
	flipBits(cw, r.SampleK(c.CodewordBits(), 7))
	syn := sc.SyndromesInto(make([]uint32, 2*c.T), cw, c.T)
	for j := 2; j <= 2*c.T; j += 2 {
		if syn[j-1] != c.Field.Sqr(syn[j/2-1]) {
			t.Fatalf("S_%d != S_%d^2", j, j/2)
		}
	}
}
