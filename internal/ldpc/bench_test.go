package ldpc

import (
	"fmt"
	"testing"

	"xlnand/internal/stats"
)

// BenchmarkLDPCDecode sweeps the min-sum hot path: clean early-exit,
// errored hard decode at half cap and at cap, across the weakest and
// strongest rate levels.
func BenchmarkLDPCDecode(b *testing.B) {
	c, err := NewPageCodec()
	if err != nil {
		b.Fatal(err)
	}
	for _, lvl := range []int{0, c.MaxLevel()} {
		cap := c.CorrectionCap(lvl)
		for _, errs := range []int{0, cap / 2, cap} {
			b.Run(fmt.Sprintf("level%d/errs%d", lvl, errs), func(b *testing.B) {
				rng := stats.NewRNG(42)
				cw := makeCodeword(b, c, lvl, 42)
				dirty := append([]byte(nil), cw...)
				flip(dirty, errs, rng)
				work := append([]byte(nil), dirty...)
				if _, err := c.Decode(lvl, work); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(c.DataBits() / 8))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(work, dirty)
					if _, err := c.Decode(lvl, work); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLDPCDecodeSoft measures the soft-input path at the soft cap —
// the recovery rung's decode cost.
func BenchmarkLDPCDecodeSoft(b *testing.B) {
	c, err := NewPageCodec()
	if err != nil {
		b.Fatal(err)
	}
	lvl := c.MaxLevel()
	rng := stats.NewRNG(77)
	cw := makeCodeword(b, c, lvl, 77)
	pos := flip(cw, c.SoftCorrectionCap(lvl), rng)
	llr := softLLR(cw, pos, rng)
	dirty := append([]byte(nil), cw...)
	work := append([]byte(nil), dirty...)
	if _, err := c.DecodeSoft(lvl, work, llr); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(c.DataBits() / 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, dirty)
		if _, err := c.DecodeSoft(lvl, work, llr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLDPCEncode measures the word-parallel systematic encoder.
func BenchmarkLDPCEncode(b *testing.B) {
	c, err := NewPageCodec()
	if err != nil {
		b.Fatal(err)
	}
	lvl := c.MaxLevel()
	rng := stats.NewRNG(7)
	msg := make([]byte, c.DataBits()/8)
	for i := range msg {
		msg[i] = byte(rng.Intn(256))
	}
	pb, _ := c.ParityBytes(lvl)
	parity := make([]byte, pb)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.EncodeInto(lvl, parity, msg); err != nil {
			b.Fatal(err)
		}
	}
}
