package bch

// Decode-pipeline micro-benchmarks: the error-count × capability matrix
// behind the bench ladder's bch.decode_ns rungs. All
// benchmarks report allocs/op; the steady-state encode and decode paths
// must stay at 0.

import (
	"errors"
	"fmt"
	"testing"

	"xlnand/internal/stats"
)

// benchCodec builds the paper's page codec warmed at capability t.
func benchCodec(b *testing.B, t int) *Codec {
	b.Helper()
	codec, err := NewPageCodec()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := codec.at(t); err != nil {
		b.Fatal(err)
	}
	return codec
}

func benchPage(r *stats.RNG, n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(r.Intn(256))
	}
	return msg
}

// dedupeCounts drops repeated error counts (e.g. t/2 == 1 at t = 3) so
// benchmark and test matrices emit one stably-named series per count.
func dedupeCounts(counts ...int) []int {
	out := counts[:0]
	for _, c := range counts {
		dup := false
		for _, o := range out {
			if o == c {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// BenchmarkDecode measures the full decode pipeline (sliced division ->
// syndromes of the remainder -> BM -> locator roots by trace splitting ->
// in-place correction -> incremental re-check) at error
// counts {0, 1, t/2, t} for t in {3, 16, 65}. The same error pattern is
// re-applied before every iteration: decoding corrects it in place, so
// each iteration starts from an identically corrupted page without a
// 4KB copy inside the timed loop.
func BenchmarkDecode(b *testing.B) {
	for _, tcap := range []int{3, 16, 65} {
		codec := benchCodec(b, tcap)
		code, err := codec.Code(tcap)
		if err != nil {
			b.Fatal(err)
		}
		r := stats.NewRNG(0xdec0de + uint64(tcap))
		msg := benchPage(r, codec.K/8)
		cw, err := codec.EncodeCodeword(tcap, msg)
		if err != nil {
			b.Fatal(err)
		}
		for _, nerr := range dedupeCounts(0, 1, tcap/2, tcap) {
			positions := r.SampleK(code.CodewordBits(), nerr)
			b.Run(fmt.Sprintf("t=%d/errs=%d", tcap, nerr), func(b *testing.B) {
				b.SetBytes(int64(codec.K / 8))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, p := range positions {
						cw[p/8] ^= 1 << uint(7-p%8)
					}
					n, err := codec.Decode(tcap, cw)
					if err != nil {
						b.Fatal(err)
					}
					if n != nerr {
						b.Fatalf("corrected %d of %d errors", n, nerr)
					}
				}
			})
		}
	}
}

// BenchmarkDecodeSensed is BenchmarkDecode's t = 65 rows at EOL-sized
// error counts through DecodeSensed. Up to t flips, the bounded-distance
// shortcut undoes them with no syndrome, BM or root finding, so those
// rows time only that. The errs=t+1 row times the tail a read past the
// capability runs: syndromes from the flip positions (the page is never
// divided), then BM, which finds the word uncorrectable; the buffer is
// rolled back, so it stays the same received word every iteration.
func BenchmarkDecodeSensed(b *testing.B) {
	const tcap = 65
	codec := benchCodec(b, tcap)
	code, err := codec.Code(tcap)
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(0xdec0de + uint64(tcap))
	cw, err := codec.EncodeCodeword(tcap, benchPage(r, codec.K/8))
	if err != nil {
		b.Fatal(err)
	}
	for _, nerr := range []int{tcap / 2, tcap} {
		positions := r.SampleK(code.CodewordBits(), nerr)
		b.Run(fmt.Sprintf("t=%d/errs=%d", tcap, nerr), func(b *testing.B) {
			b.SetBytes(int64(codec.K / 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range positions {
					cw[p/8] ^= 1 << uint(7-p%8)
				}
				n, err := codec.DecodeSensed(tcap, cw, positions)
				if err != nil {
					b.Fatal(err)
				}
				if n != nerr {
					b.Fatalf("corrected %d of %d errors", n, nerr)
				}
			}
		})
	}
	positions := r.SampleK(code.CodewordBits(), tcap+1)
	b.Run(fmt.Sprintf("t=%d/errs=%d", tcap, tcap+1), func(b *testing.B) {
		b.SetBytes(int64(codec.K / 8))
		b.ReportAllocs()
		flipBits(cw, positions)
		defer flipBits(cw, positions)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := codec.DecodeSensed(tcap, cw, positions); !errors.Is(err, ErrUncorrectable) {
				b.Fatalf("t+1 errors: %v, want ErrUncorrectable", err)
			}
		}
	})
}

// BenchmarkEncode measures the steady-state parity computation through
// the allocation-free EncodeInto path.
func BenchmarkEncode(b *testing.B) {
	for _, tcap := range []int{3, 16, 65} {
		codec := benchCodec(b, tcap)
		r := stats.NewRNG(0xe6c0de + uint64(tcap))
		msg := benchPage(r, codec.K/8)
		pb, err := codec.ParityBytes(tcap)
		if err != nil {
			b.Fatal(err)
		}
		parity := make([]byte, pb)
		b.Run(fmt.Sprintf("t=%d", tcap), func(b *testing.B) {
			b.SetBytes(int64(len(msg)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := codec.EncodeInto(tcap, parity, msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSyndromes isolates the fused single-pass syndrome kernel.
func BenchmarkSyndromes(b *testing.B) {
	for _, tcap := range []int{3, 16, 65} {
		codec := benchCodec(b, tcap)
		r := stats.NewRNG(0x517d + uint64(tcap))
		msg := benchPage(r, codec.K/8)
		cw, err := codec.EncodeCodeword(tcap, msg)
		if err != nil {
			b.Fatal(err)
		}
		syn := make([]uint32, 2*tcap)
		b.Run(fmt.Sprintf("t=%d", tcap), func(b *testing.B) {
			b.SetBytes(int64(len(cw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				codec.syn.SyndromesInto(syn, cw, tcap)
			}
		})
	}
}
