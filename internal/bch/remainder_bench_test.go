package bch

import (
	"fmt"
	"testing"
)

// BenchmarkRemainder gauges the polynomial-division kernel on one
// full-length codeword of the paper's page code — the dominant per-read
// cost of the simulation hot path — at each register shape: t = 3 the
// one-word four-way interleave, 16 the word-aligned fused pass (rw = 4),
// 33 the ragged-top one (rw = 9, r mod 64 = 16), 65 the widest (rw = 17).
func BenchmarkRemainder(b *testing.B) {
	for _, tcap := range []int{3, 16, 33, 65} {
		code, err := NewCode(Params{M: 16, K: 32768, T: tcap})
		if err != nil {
			b.Fatal(err)
		}
		dv := tablesFor(code)
		data := make([]byte, (code.K+code.GenDegree)/8)
		for i := range data {
			data[i] = byte(i * 31)
		}
		reg := make([]uint64, dv.rw)
		rem := make([]byte, dv.rb)
		b.Run(fmt.Sprintf("t=%d", tcap), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				dv.remainderInto(rem, reg, data)
			}
		})
	}
}
