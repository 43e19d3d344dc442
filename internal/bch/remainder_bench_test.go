package bch

import (
	"fmt"
	"testing"
)

// BenchmarkRemainder gauges the polynomial-division kernel on the paper's
// page code at each register shape, in both directions: decode divides
// one full-length codeword (the dominant per-read cost of the simulation
// hot path), encode the 4096-byte message premultiplied by x^r. t = 3 and
// 6 run the interleaved register-in-locals loops (rw = 1 and rw = 2), 16
// the word-aligned fused pass (rw = 4), 33 the ragged-top one (rw = 9,
// r mod 64 = 16), 65 the widest (rw = 17).
func BenchmarkRemainder(b *testing.B) {
	for _, tcap := range []int{3, 6, 16, 33, 65} {
		code, err := NewCode(Params{M: 16, K: 32768, T: tcap})
		if err != nil {
			b.Fatal(err)
		}
		dv := tablesFor(code)
		cw := make([]byte, (code.K+code.GenDegree)/8)
		for i := range cw {
			cw[i] = byte(i * 31)
		}
		reg := make([]uint64, dv.rw)
		rem := make([]byte, dv.rb)
		b.Run(fmt.Sprintf("t=%d/decode", tcap), func(b *testing.B) {
			b.SetBytes(int64(len(cw)))
			b.ReportAllocs()
			for b.Loop() {
				dv.remainderInto(rem, reg, cw)
			}
		})
		msg := cw[:code.K/8]
		b.Run(fmt.Sprintf("t=%d/encode", tcap), func(b *testing.B) {
			b.SetBytes(int64(len(msg)))
			b.ReportAllocs()
			for b.Loop() {
				dv.divide(reg, msg, true)
			}
		})
	}
}
