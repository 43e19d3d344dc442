package bch

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"xlnand/internal/gf"
)

// TestRemainderSyndromesMatchDirect pins the remainder-first syndrome
// path bit-identical to the direct full-codeword walk across
// capabilities and error weights: same field elements, in the same
// order, for clean words, correctable patterns and saturated garbage.
func TestRemainderSyndromesMatchDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// t = 3 exercises the one-word four-way interleaved loop, 4 the same
	// at exactly r = 64 (zero-width top shifts), 5..8 the two-word two-way
	// one at every top width s = r mod 64 (16, 32, 48, 0), 9 the fused
	// multi-word pass with a non-word-aligned register top, 24 the
	// word-aligned one, 65 the widest register (rw = 17, ragged top).
	for _, tc := range []int{3, 4, 5, 6, 7, 8, 9, 24, 65} {
		code, err := NewCode(Params{M: 16, K: 32768, T: tc})
		if err != nil {
			t.Fatalf("t=%d: %v", tc, err)
		}
		dv := tablesFor(code)
		if dv == nil {
			t.Fatalf("t=%d: expected byte-aligned divider", tc)
		}
		syn := NewSyndromeCalc(code.Field)
		syn.Prepare(tc)
		enc := NewEncoder(code)
		msg := make([]byte, code.K/8)
		reg := make([]uint64, dv.rw)
		rem := make([]byte, dv.rb)
		direct := make([]uint32, 2*tc)
		fast := make([]uint32, 2*tc)
		for trial := 0; trial < 4; trial++ {
			rng.Read(msg)
			cw, err := enc.EncodeCodeword(msg)
			if err != nil {
				t.Fatal(err)
			}
			nerr := []int{0, 1, tc, 4 * tc}[trial]
			for e := 0; e < nerr; e++ {
				p := rng.Intn(len(cw) * 8)
				cw[p/8] ^= 1 << uint(7-p%8)
			}
			syn.SyndromesInto(direct, cw, tc)
			dv.remainderInto(rem, reg, cw)
			syn.SyndromesInto(fast, rem, tc)
			for i := range direct {
				if direct[i] != fast[i] {
					t.Fatalf("t=%d trial=%d: S_%d mismatch: direct=%#x fast=%#x",
						tc, trial, i+1, direct[i], fast[i])
				}
			}
			if nerr == 0 && !AllZero(fast) {
				t.Fatalf("t=%d: clean codeword has nonzero fast syndromes", tc)
			}
		}
	}
}

// checkSlicedDivision holds the sliced kernel (prologue + chunks, then
// chunks4 or chunks2 on a long body) to two independent references on one input, for the plain
// remainder and for the premultiplied (encoding) one: the register of a
// bytewise-only run, word for word, and the serialised remainder of the
// polynomial division data(x)[·x^r] mod g.
func checkSlicedDivision(t testing.TB, code *Code, data []byte) {
	t.Helper()
	tb := tablesFor(code)
	if tb == nil {
		t.Fatalf("%v: no division tables", code)
	}
	got, want := make([]uint64, tb.rw), make([]uint64, tb.rw)
	out := make([]byte, tb.rb)
	for _, premul := range []bool{false, true} {
		tb.divide(got, data, premul)
		clear(want)
		tb.bytewise(want, data, premul)
		if !slices.Equal(got, want) {
			t.Fatalf("%v len=%d premul=%v: sliced register %x, bytewise %x", code, len(data), premul, got, want)
		}
		ref := gf.NewPoly2FromBytes(data, 8*len(data))
		if premul {
			ref = ref.ShiftLeft(tb.r)
		}
		tb.serialise(out, got)
		if refBytes := ref.Mod(code.Gen).Bytes(tb.r); !bytes.Equal(out, refBytes) {
			t.Fatalf("%v len=%d premul=%v: sliced remainder %x, polynomial %x", code, len(data), premul, out, refBytes)
		}
	}
}

// TestSlicedDivisionMatchesBytewise pins the slice-by-8 kernel at every
// register shape it has a path for — rw = 1 (t = 3, and 4 at exactly
// r = 64), 2 with each top s = r mod 64 (t = 5..8: 16, 32, 48, 0), 8
// (t = 32), 9 with each ragged top (t = 33..36) and 17 (t = 65) — on
// random data of every length mod 8: short, page-sized, the 4096-byte
// message, the codeword, and bodies of exactly streams·segLen bytes (the
// shortest that interleave), one chunk shorter and one longer. The
// encoder's public path is held to EncodePoly besides.
func TestSlicedDivisionMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, tc := range []int{3, 4, 5, 6, 7, 8, 32, 33, 34, 35, 36, 65} {
		code, err := NewCode(Params{M: 16, K: 32768, T: tc})
		if err != nil {
			t.Fatalf("t=%d: %v", tc, err)
		}
		cwLen := code.CodewordBits() / 8
		tb := tablesFor(code)
		split := tb.streams * tb.segLen
		if tc <= 8 && split == 0 {
			t.Fatalf("t=%d: no interleaved loop", tc)
		}
		lens := []int{cwLen}
		for l := 0; l < 8; l++ {
			lens = append(lens, l, 8+l, 200+l, code.K/8-l)
			if split > 0 {
				lens = append(lens, split-8+l, split+l, split+8+l)
			}
		}
		for _, n := range lens {
			data := make([]byte, n)
			rng.Read(data)
			checkSlicedDivision(t, code, data)
		}
		msg := make([]byte, code.K/8)
		rng.Read(msg)
		cw, err := NewEncoder(code).EncodeCodeword(msg)
		if err != nil {
			t.Fatal(err)
		}
		ref := EncodePoly(code, gf.NewPoly2FromBytes(msg, code.K))
		if !ref.Equal(gf.NewPoly2FromBytes(cw, code.CodewordBits())) {
			t.Fatalf("t=%d: Encoder disagrees with EncodePoly", tc)
		}
	}
}
