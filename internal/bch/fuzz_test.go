package bch

// Round-trip fuzzer for the byte-wise fast paths: every input drives the
// table-driven encoder/decoder AND the polynomial reference
// (EncodePoly/DecodePoly) through the same message and error pattern, and
// the two implementations must agree bit-exactly — on the codeword, on
// the corrected output, on the corrected-bit count and on the
// uncorrectable verdict. Run with `go test -fuzz FuzzEncodeDecodeRoundtrip
// ./internal/bch` to explore beyond the seed corpus.

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"xlnand/internal/gf"
)

// fuzzCode is a small byte-aligned code (GF(2^8), k = 128, t = 4) kept
// package-global so the fuzz engine does not rebuild tables per input.
var fuzzCode = sync.OnceValues(func() (*Code, error) {
	return NewCode(Params{M: 8, K: 128, T: 4})
})

func FuzzEncodeDecodeRoundtrip(f *testing.F) {
	f.Add([]byte{0x00}, uint16(0), byte(0))
	f.Add([]byte{0xff, 0x01, 0x80, 0xaa}, uint16(3), byte(2))
	f.Add(bytes.Repeat([]byte{0x5a}, 16), uint16(0xbeef), byte(4))
	f.Add([]byte("fuzz the decoder"), uint16(0x1234), byte(7))

	f.Fuzz(func(t *testing.T, raw []byte, errSeed uint16, errCount byte) {
		c, err := fuzzCode()
		if err != nil {
			t.Fatal(err)
		}
		enc, dec := NewEncoder(c), NewDecoder(c, nil)
		nbits := c.CodewordBits()

		// Normalise the fuzz input into one exact-size message.
		msg := make([]byte, c.K/8)
		copy(msg, raw)

		// Byte-wise and polynomial encoders must emit the same codeword.
		cw, err := enc.EncodeCodeword(msg)
		if err != nil {
			t.Fatal(err)
		}
		ref := EncodePoly(c, gf.NewPoly2FromBytes(msg, c.K))
		if !ref.Equal(gf.NewPoly2FromBytes(cw, nbits)) {
			t.Fatal("byte encoder disagrees with EncodePoly")
		}

		// Derive up to 2t+1 distinct error positions from the fuzz seed
		// (an LCG walk keeps the mapping deterministic and cheap).
		nerr := int(errCount) % (2*c.T + 2)
		state := uint32(errSeed) + 1
		seen := map[int]bool{}
		var positions []int
		for len(positions) < nerr {
			state = state*1664525 + 1013904223
			p := int(state>>8) % nbits
			if !seen[p] {
				seen[p] = true
				positions = append(positions, p)
			}
		}
		clean := append([]byte(nil), cw...)
		flipBits(cw, positions)
		dirty := append([]byte(nil), cw...)
		corrupted := gf.NewPoly2FromBytes(cw, nbits)

		// Decode through both implementations and cross-check verdicts.
		n, decErr := dec.Decode(cw)
		refFixed, refN, refErr := DecodePoly(c, corrupted)
		if (decErr != nil) != (refErr != nil) {
			t.Fatalf("verdicts disagree: byte=%v poly=%v (e=%d)", decErr, refErr, nerr)
		}
		if decErr != nil {
			if !bytes.Equal(cw, dirty) {
				t.Fatal("ErrUncorrectable but codeword was modified")
			}
			return
		}
		if n != refN {
			t.Fatalf("corrected-bit counts disagree: byte=%d poly=%d", n, refN)
		}
		if !refFixed.Equal(gf.NewPoly2FromBytes(cw, nbits)) {
			t.Fatal("byte decoder output disagrees with DecodePoly")
		}
		if nerr <= c.T {
			if n != nerr {
				t.Fatalf("corrected %d of %d injected errors", n, nerr)
			}
			if !bytes.Equal(cw, clean) {
				t.Fatal("decode did not restore the original codeword")
			}
		}
	})
}

// fuzzField is GF(2^16), the page codec's field, built once.
var fuzzField = sync.OnceValue(func() *gf.Field { return gf.NewField(16) })

// FuzzLocatorRoots holds the algebraic root finder to the textbook scan
// (scanRoots) on arbitrary locators over GF(2^16) of degree <= 65: raw is
// read as big-endian 16-bit words that are either the coefficients
// themselves or, with asRoots, roots to expand (repeats and zero
// included) — a random coefficient vector almost never splits, so the
// second reading is what reaches the splitting stage.
func FuzzLocatorRoots(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3}, uint16(0), false)
	f.Add([]byte{0, 1, 0, 0, 0, 1}, uint16(33807), false)           // (x+1)^2
	f.Add([]byte{0, 0, 0, 5, 0, 7}, uint16(100), false)             // lambda_0 = 0
	f.Add([]byte{0, 2, 0, 4, 0x10, 0, 0xab, 0xcd}, uint16(0), true) // four distinct roots
	f.Add([]byte{0, 2, 0, 2, 0, 9}, uint16(0), true)                // a repeated one
	f.Add(bytes.Repeat([]byte{0x5a, 0xa5, 0x13}, 44), uint16(40000), true)

	f.Fuzz(func(t *testing.T, raw []byte, short uint16, asRoots bool) {
		fld := fuzzField()
		words := make([]uint32, 0, 66)
		for i := 0; i+1 < len(raw) && len(words) < 66; i += 2 {
			words = append(words, uint32(raw[i])<<8|uint32(raw[i+1]))
		}
		lambda := words
		if asRoots {
			lambda = fromRoots(fld, 1, words[:min(len(words), 65)]...)
		}
		nbits := fld.N() - int(short)%fld.N() // 1..N: every shortening
		pos, ok := checkAgainstScan(t, fld, lambda, nbits)
		if ok && !slices.IsSorted(pos) {
			t.Fatalf("positions %v not ascending", pos)
		}
	})
}

// fuzzPageCodec supplies the page code at every capability, built once.
var fuzzPageCodec = sync.OnceValues(NewPageCodec)

// FuzzSlicedDivision is TestSlicedDivisionMatchesBytewise with the
// capability (every t in 3..65, so every register width 1..17 and every
// ragged top), the length and the bytes chosen by the fuzzer.
func FuzzSlicedDivision(f *testing.F) {
	f.Add(byte(0), uint16(6), []byte{0xff})
	f.Add(byte(1), uint16(4104), []byte{0x80, 0x01}) // t = 4: its codeword
	f.Add(byte(30), uint16(531), []byte("ragged top, s = 16"))
	f.Add(byte(62), uint16(4226), bytes.Repeat([]byte{0xa5, 0x3c, 0x0f}, 7))
	// Long enough to interleave, which a uniform length rarely is: the
	// 4096-byte message and the codeword at t = 3 (rw = 1), 6 and 8
	// (rw = 2, s = 32 and 0).
	f.Add(byte(0), uint16(4096), []byte{0x5a, 0xc3})
	f.Add(byte(3), uint16(4096), []byte{0x01, 0xfe, 0x77})
	f.Add(byte(3), uint16(4108), []byte("t = 6 codeword"))
	f.Add(byte(5), uint16(4096), []byte{0xff, 0x00, 0x80})
	f.Add(byte(5), uint16(4112), []byte("t = 8 codeword, s = 0"))

	f.Fuzz(func(t *testing.T, tsel byte, length uint16, raw []byte) {
		codec, err := fuzzPageCodec()
		if err != nil {
			t.Fatal(err)
		}
		code, err := codec.Code(codec.TMin + int(tsel)%(codec.TMax-codec.TMin+1))
		if err != nil {
			t.Fatal(err)
		}
		// Any length up to just past the codeword; raw repeats to fill it.
		data := make([]byte, int(length)%(code.CodewordBits()/8+9))
		for i := range data {
			if len(raw) > 0 {
				data[i] = raw[i%len(raw)] + byte(i/len(raw))
			}
		}
		checkSlicedDivision(t, code, data)
	})
}
