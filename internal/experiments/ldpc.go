package experiments

import (
	"math"

	"time"

	"xlnand/internal/bch"
	"xlnand/internal/ldpc"
	"xlnand/internal/nand"
	"xlnand/internal/sim"
)

// ExtLDPCFamilies is the Fig. 7-style family comparison at the recovery
// endgame: post-recovery UBER versus P/E cycles after a deep shelf bake,
// for the full BCH hard-retry ladder (t = 65, every reference shift
// tried), the LDPC hard-decision ladder, and the LDPC ladder with the
// soft-sense rung appended. The soft series keeps the UBER at or below
// the target out to wear where BOTH hard-decision ladders are
// uncorrectable — and the second series group prices it: the modelled
// end-of-life read throughput of each path, where the soft rung's extra
// component senses, transfers and min-sum iterations are visible as the
// lowest MB/s of the three. UBER curves and throughput curves share the
// log Y axis (MB/s values sit decades above the UBER floor); the table
// rendering keeps the units separate.
func ExtLDPCFamilies(env sim.Env) (Figure, error) {
	f := Figure{
		ID:     "ext-ldpc",
		Title:  "Codec families at the recovery endgame: BCH ladder vs LDPC hard vs LDPC soft (extension)",
		XLabel: "P/E cycles",
		YLabel: "post-recovery UBER  /  read MB/s",
		LogX:   true,
		LogY:   true,
		Notes: []string{
			"deep shelf bake: 1e5 h on the shelf after the last rewrite; ladder = every calibrated reference shift",
			"ladder UBER multiplies per-step uncorrectable tails (independent re-senses); soft rung appended for LDPC-soft",
			"[MB/s] series: modelled read throughput when the path's full recovery walk engages",
			"LDPC capability model: calibrated caps as effective bounded distance (internal/ldpc)",
		},
	}
	lc, err := ldpc.NewPageCodec()
	if err != nil {
		return f, err
	}
	s := nand.DefaultStressConfig()
	const bake = 1e5 // hours on the shelf — the beyond-datasheet audit
	const floor = -230.0
	bchT := env.TMax
	bchN := env.K + env.M*bchT
	lvl := lc.MaxLevel()
	ldpcN, err := lc.CodewordBits(lvl)
	if err != nil {
		return f, err
	}

	// ladderLogFail returns ln P(every hard rung fails) for one
	// codeword: per-step uncorrectable-tail probabilities multiplied
	// across independent re-senses. (Per-codeword, NOT per-bit — the
	// callers normalise to UBER once at the end; multiplying per-bit
	// UBERs across stages would divide by n per stage.)
	ladderLogFail := func(n, cap int, cycles float64) float64 {
		lf := 0.0
		lnN := math.Log(float64(n))
		for step := 0; step <= s.RetrySteps; step++ {
			rber := env.Cal.RecoveredRBER(s, nand.ISPPSV, cycles, 0, bake, step)
			lf += bch.LogUBERTail(n, cap, rber) + lnN
		}
		return lf
	}
	// softRBER mirrors the device's soft-sense bracket: component senses
	// around one step short of the deepest shift, best bracketed step
	// wins.
	softRBER := func(cycles float64) float64 {
		center := s.RetrySteps - 1
		if center < 0 {
			center = 0
		}
		best := math.Inf(1)
		for st := center - 1; st <= center+1; st++ {
			if st < 0 || st > s.RetrySteps {
				continue
			}
			if r := env.Cal.RecoveredRBER(s, nand.ISPPSV, cycles, 0, bake, st); r < best {
				best = r
			}
		}
		return best
	}

	grid := logGrid(1e4, 4e7, 22)
	bchU := make([]float64, len(grid))
	hardU := make([]float64, len(grid))
	softU := make([]float64, len(grid))
	lnNB, lnNL := math.Log(float64(bchN)), math.Log(float64(ldpcN))
	for i, cyc := range grid {
		bchU[i] = math.Exp(math.Max(ladderLogFail(bchN, bchT, cyc)-lnNB, floor))
		lfHard := ladderLogFail(ldpcN, lc.CorrectionCap(lvl), cyc)
		hardU[i] = math.Exp(math.Max(lfHard-lnNL, floor))
		lfSoft := lfHard + bch.LogUBERTail(ldpcN, lc.SoftCorrectionCap(lvl), softRBER(cyc)) + lnNL
		softU[i] = math.Exp(math.Max(lfSoft-lnNL, floor))
	}
	f.mustAdd("BCH t=65 + hard ladder", grid, bchU)
	f.mustAdd("LDPC hard + ladder", grid, hardU)
	f.mustAdd("LDPC soft (ladder + soft rung)", grid, softU)

	// Price of the paths at the same climates: modelled read throughput
	// when the full recovery walk engages. The BCH/LDPC-hard walks pay
	// every rung (tR + transfer + decode each); the soft path pays the
	// whole hard walk PLUS the multi-sense read and the soft-input
	// decode — visibly the slowest line.
	attempts := time.Duration(s.RetrySteps + 1)
	payload := float64(env.K / 8)
	mbps := func(total time.Duration) float64 {
		return payload / total.Seconds() / 1e6
	}
	bc, err := bch.NewCodec(env.M, env.K, env.TMin, env.TMax, env.HW)
	if err != nil {
		return f, err
	}
	xferB := env.Bus.Transfer(bchN / 8)
	xferL := env.Bus.Transfer(ldpcN / 8)
	bchWalk := attempts * (nand.PageReadTime + xferB + bc.DecodeLatency(bchT, false))
	hardWalk := attempts * (nand.PageReadTime + xferL + lc.DecodeLatency(lvl, false))
	senses := time.Duration(s.SoftSenses)
	softWalk := hardWalk + senses*(nand.PageReadTime+xferL) + lc.SoftDecodeLatency(lvl)
	flat := func(v float64) []float64 {
		out := make([]float64, len(grid))
		for i := range out {
			out[i] = v
		}
		return out
	}
	f.mustAdd("BCH ladder walk [MB/s]", grid, flat(mbps(bchWalk)))
	f.mustAdd("LDPC hard walk [MB/s]", grid, flat(mbps(hardWalk)))
	f.mustAdd("LDPC soft path [MB/s]", grid, flat(mbps(softWalk)))
	return f, nil
}

// logGrid returns k log-spaced points in [lo, hi].
func logGrid(lo, hi float64, k int) []float64 {
	out := make([]float64, k)
	ratio := math.Pow(hi/lo, 1/float64(k-1))
	v := lo
	for i := range out {
		out[i] = v
		v *= ratio
	}
	return out
}
