package ldpc

import (
	"fmt"
	"testing"

	"xlnand/internal/stats"
)

// reportPerEdge states a decode benchmark per edge per min-sum
// iteration — the unit a kernel claim is made in — from the iteration
// count the engine reported for this input.
func reportPerEdge(b *testing.B, iters, edges int) {
	if iters > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(iters)/float64(edges), "ns/edge-iter")
	}
}

// BenchmarkLDPCDecode sweeps the min-sum hot path across the weakest
// and strongest rate levels: clean early-exit, one flipped bit (one
// iteration — the dominant aged read), half cap, cap, and a 3·cap input
// that stalls out uncorrectable (what every hard rung below the soft
// one pays on a page only the soft rung can read).
func BenchmarkLDPCDecode(b *testing.B) {
	c, err := NewPageCodec()
	if err != nil {
		b.Fatal(err)
	}
	for _, lvl := range []int{0, c.MaxLevel()} {
		cap := c.CorrectionCap(lvl)
		d, err := c.decoder(lvl)
		if err != nil {
			b.Fatal(err)
		}
		for _, errs := range []int{0, 1, cap / 2, cap, 3 * cap} {
			name, stalls := fmt.Sprintf("level%d/errs%d", lvl, errs), errs == 3*cap
			if stalls {
				name += "-stall"
			}
			b.Run(name, func(b *testing.B) {
				rng := stats.NewRNG(42)
				cw := makeCodeword(b, c, lvl, 42)
				dirty := append([]byte(nil), cw...)
				flip(dirty, errs, rng)
				work := append([]byte(nil), dirty...)
				_, iters, err := d.decodeIter(work, nil, maxIterHard, flipGuard(cap))
				if (err != nil) != stalls {
					b.Fatalf("decode of %d errors: %v", errs, err)
				}
				b.SetBytes(int64(c.DataBits() / 8))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(work, dirty)
					if _, err := c.Decode(lvl, work); err != nil && !stalls {
						b.Fatal(err)
					}
				}
				reportPerEdge(b, iters, d.c.edges)
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
	d, err := c.decoder(lvl)
	if err != nil {
		b.Fatal(err)
	}
	_, iters, err := d.decodeIter(work, llr, maxIterSoft, flipGuard(c.SoftCorrectionCap(lvl)))
	if err != nil {
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
	reportPerEdge(b, iters, d.c.edges)
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
