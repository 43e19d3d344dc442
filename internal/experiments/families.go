package experiments

import (
	"math"

	"xlnand/internal/bch"
	"xlnand/internal/sim"
	"xlnand/internal/stats"
)

// AblationECCFamilies compares the three ECC families of the paper's
// related-work landscape on the 4 KB page at their natural geometries:
//
//   - SEC-DED Hamming per 512 B block (the low-end option of §1 [2]):
//     corrects 1 bit per block, 14 check bits each;
//   - RS(255, 223) over GF(2^8) interleaved across the page ([14]):
//     corrects 16 symbol errors per codeword, 32 parity bytes each;
//   - adaptive BCH over the whole page (this work) at the capability
//     whose parity cost matches RS (t = 64 -> 128 parity bytes vs RS's
//     19×32 = 608; BCH shown at both t=14 and t=64 to bracket).
//
// The figure plots page-level UBER vs RBER analytically (independent
// bit errors, the paper's §4 assumption), exposing why BCH with long
// blocks wins for NAND's non-correlated errors.
func AblationECCFamilies(env sim.Env) Figure {
	f := Figure{
		ID:     "abl-eccfam",
		Title:  "ECC family comparison on a 4 KB page (UBER vs RBER)",
		XLabel: "RBER",
		YLabel: "UBER",
		LogX:   true,
		LogY:   true,
		Notes: []string{
			"Hamming: 8 SEC-DED(512 B) blocks, 14 B parity/page",
			"RS: 19 interleaved RS(255,223) codewords, 608 B parity/page (overflows a 224 B spare area)",
			"BCH: single 4 KB codeword, t=14 (28 B) and t=64 (128 B) parity",
		},
	}
	grid := stats.LogSpace(1e-7, 1e-3, 17)
	floor := math.Log(1e-40)

	// Hamming SEC-DED per 512 B: block fails when >= 2 of its
	// 4096+14 bits err; page UBER = P_fail_block * blocks / page bits.
	hamming := make([]float64, len(grid))
	const hBlockBits = 512*8 + 14
	for i, p := range grid {
		lp := stats.LogBinomTail(hBlockBits, 2, p)
		lu := lp + math.Log(8) - math.Log(4096*8)
		hamming[i] = math.Exp(math.Max(lu, floor))
	}
	f.mustAdd("Hamming SEC-DED 512 B", grid, hamming)

	// RS(255,223): symbol error rate from bit RBER; codeword fails at
	// >= 17 symbol errors. 19 codewords cover 4 KB (4237 data bytes).
	rsUBER := make([]float64, len(grid))
	for i, p := range grid {
		ps := symbolErrorRate(p)
		lp := stats.LogBinomTail(255, 17, ps)
		lu := lp + math.Log(19) - math.Log(4096*8)
		rsUBER[i] = math.Exp(math.Max(lu, floor))
	}
	f.mustAdd("RS(255,223) x19", grid, rsUBER)

	// BCH page codes at bracketing capabilities.
	for _, t := range []int{14, 64} {
		n := env.K + env.M*t
		ys := make([]float64, len(grid))
		for i, p := range grid {
			ys[i] = math.Exp(math.Max(bch.LogUBERTail(n, t, p), floor))
		}
		f.mustAdd(fmtNote("BCH 4KB t=%d", t), grid, ys)
	}
	return f
}

// symbolErrorRate converts a raw bit error rate into the probability that
// an 8-bit symbol is corrupted (any of its bits flipped).
func symbolErrorRate(rber float64) float64 {
	q := 1 - rber
	q2 := q * q
	q4 := q2 * q2
	return 1 - q4*q4
}
