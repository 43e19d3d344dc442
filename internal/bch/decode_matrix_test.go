package bch

// Table-driven coverage of the rebuilt decode pipeline at page scale:
// every capability tier the benchmarks track ({3, 16, 65}) is exercised
// at error counts {0, 1, t/2, t, t+1}, asserting exact corrected-bit
// counts within capability and the ErrUncorrectable rollback contract
// beyond it.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"xlnand/internal/stats"
)

func TestDecodeErrorCountMatrix(t *testing.T) {
	codec, err := NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	for _, tcap := range []int{3, 16, 65} {
		if _, err := codec.at(tcap); err != nil {
			t.Fatal(err)
		}
		code, err := codec.Code(tcap)
		if err != nil {
			t.Fatal(err)
		}
		nbits := code.CodewordBits()
		for _, nerr := range dedupeCounts(0, 1, tcap/2, tcap, tcap+1) {
			t.Run(fmt.Sprintf("t=%d/errs=%d", tcap, nerr), func(t *testing.T) {
				r := stats.NewRNG(uint64(1000*tcap + nerr))
				const trials = 4
				detected := 0
				for trial := 0; trial < trials; trial++ {
					msg := randMsg(r, codec.K/8)
					cw, err := codec.EncodeCodeword(tcap, msg)
					if err != nil {
						t.Fatal(err)
					}
					clean := append([]byte(nil), cw...)
					flipBits(cw, r.SampleK(nbits, nerr))
					dirty := append([]byte(nil), cw...)

					n, err := codec.Decode(tcap, cw)
					if nerr <= tcap {
						if err != nil {
							t.Fatalf("trial %d: decode of %d <= t errors failed: %v", trial, nerr, err)
						}
						if n != nerr {
							t.Fatalf("trial %d: corrected %d bits, want %d", trial, n, nerr)
						}
						if !bytes.Equal(cw, clean) {
							t.Fatalf("trial %d: corrected codeword differs from original", trial)
						}
						continue
					}
					// Beyond capability: the decoder must either detect the
					// overload (rolling the codeword back untouched) or — rare
					// for page-scale codes — miscorrect onto another valid
					// codeword, never claiming more than t repairs.
					if errors.Is(err, ErrUncorrectable) {
						detected++
						if !bytes.Equal(cw, dirty) {
							t.Fatalf("trial %d: ErrUncorrectable but codeword was modified", trial)
						}
						continue
					}
					if err != nil {
						t.Fatalf("trial %d: unexpected error: %v", trial, err)
					}
					if n > tcap {
						t.Fatalf("trial %d: claimed to correct %d > t errors", trial, n)
					}
				}
				if nerr > tcap && detected == 0 {
					t.Fatalf("no trial detected the %d-error overload", nerr)
				}
			})
		}
	}
}

// TestDecodeConcurrentSharedDecoder hammers one warmed codec from many
// goroutines at mixed capabilities: the lock-free syndrome tables, codec
// slots and pooled scratch must never cross-contaminate decodes.
func TestDecodeConcurrentSharedDecoder(t *testing.T) {
	codec, err := NewCodec(16, 1024, 1, 12, DefaultHWConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []int{3, 8, 12} {
		if _, err := codec.at(tc); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed uint64) {
			r := stats.NewRNG(seed)
			for i := 0; i < 50; i++ {
				tc := []int{3, 8, 12}[r.Intn(3)]
				code, err := codec.Code(tc)
				if err != nil {
					done <- err
					return
				}
				msg := randMsg(r, codec.K/8)
				cw, err := codec.EncodeCodeword(tc, msg)
				if err != nil {
					done <- err
					return
				}
				nerr := r.Intn(tc + 1)
				flipBits(cw, r.SampleK(code.CodewordBits(), nerr))
				n, err := codec.Decode(tc, cw)
				if err != nil || n != nerr {
					done <- fmt.Errorf("t=%d: corrected %d of %d errors (err=%v)", tc, n, nerr, err)
					return
				}
			}
			done <- nil
		}(uint64(500 + g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
