package ldpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"sync"
	"testing"

	"xlnand/internal/stats"
)

// popcountDiff is the scalar reference's flip count of one word pair.
func popcountDiff(a, b uint64) int { return bits.OnesCount64(a ^ b) }

// scalarDecodeIter is the historical edge-at-a-time min-sum decoder,
// kept verbatim as the reference the struct-of-arrays kernel in
// decodeIter is pinned against: per-edge branch chain for min1/min2,
// conditional negation for the message sign, a separate hard-decision
// repack loop after every layered pass, and per-iteration reloads of
// the original codeword bytes in the convergence flip count.
func scalarDecodeIter(d *Decoder, cw []byte, llr []int8, maxIter, flipGuard int) (int, int, error) {
	c := d.c
	s := struct {
		post, r, chans []float32
		hard, syn      []uint64
		out            []byte
	}{
		post:  make([]float32, c.n),
		r:     make([]float32, c.edges),
		chans: make([]float32, c.n),
		hard:  make([]uint64, c.n/Z),
		syn:   make([]uint64, c.m/Z),
		out:   make([]byte, c.n/8),
	}

	packWords(s.hard, cw)
	if c.syndromeZero(s.hard, s.syn) {
		if !c.crcOK(cw) {
			return 0, 0, ErrUncorrectable
		}
		return 0, 0, nil
	}

	if llr == nil {
		for v := 0; v < c.n; v++ {
			if s.hard[v/Z]&(1<<uint(63-v%Z)) == 0 {
				s.chans[v] = 1
			} else {
				s.chans[v] = -1
			}
		}
	} else {
		for v := 0; v < c.n; v++ {
			s.chans[v] = float32(llr[v])
		}
	}
	copy(s.post, s.chans)

	bestUnsat := c.m + 1
	stall := 0
	for iter := 0; iter < maxIter; iter++ {
		for ci := 0; ci < c.m; ci++ {
			lo, hi := c.checkStart[ci], c.checkStart[ci+1]
			min1, min2 := float32(llrClamp*2), float32(llrClamp*2)
			minAt := lo
			negs := 0
			for e := lo; e < hi; e++ {
				q := s.post[c.checkVar[e]] - s.r[e]
				if q < 0 {
					negs++
					q = -q
				}
				if q < min1 {
					min2, min1, minAt = min1, q, e
				} else if q < min2 {
					min2 = q
				}
			}
			m1 := min1 * minSumAlpha
			m2 := min2 * minSumAlpha
			for e := lo; e < hi; e++ {
				v := c.checkVar[e]
				q := s.post[v] - s.r[e]
				mag := m1
				if e == minAt {
					mag = m2
				}
				nr := mag
				if (negs&1 == 1) != (q < 0) {
					nr = -mag
				}
				p := q + nr
				if p > llrClamp {
					p = llrClamp
				} else if p < -llrClamp {
					p = -llrClamp
				}
				s.r[e] = nr
				s.post[v] = p
			}
		}

		for w := 0; w < c.n/Z; w++ {
			var word uint64
			base := w * Z
			for b := 0; b < Z; b++ {
				if s.post[base+b] < 0 {
					word |= 1 << uint(63-b)
				}
			}
			s.hard[w] = word
		}
		unsat := c.unsatisfied(s.hard, s.syn)
		if unsat == 0 {
			flips := 0
			for w, word := range s.hard {
				flips += popcountDiff(word, binary.BigEndian.Uint64(cw[w*8:]))
			}
			if flips > flipGuard {
				return 0, iter + 1, ErrUncorrectable
			}
			for w, word := range s.hard {
				binary.BigEndian.PutUint64(s.out[w*8:], word)
			}
			if !c.crcOK(s.out) {
				return 0, iter + 1, ErrUncorrectable
			}
			copy(cw, s.out)
			return flips, iter + 1, nil
		}
		if unsat < bestUnsat {
			bestUnsat, stall = unsat, 0
		} else if stall++; stall >= stallPatience {
			return 0, iter + 1, ErrUncorrectable
		}
	}
	return 0, maxIter, ErrUncorrectable
}

// assertEquivalent decodes one input through both the production kernel
// and the scalar reference and requires identical iteration counts,
// flip counts, error verdicts and output bytes.
func assertEquivalent(t testing.TB, c *Codec, lvl, nerr int, soft bool, cw []byte, llr []int8, maxIter, guard int) {
	t.Helper()
	d, err := c.at(lvl)
	if err != nil {
		t.Fatal(err)
	}
	fastCW := append([]byte(nil), cw...)
	refCW := append([]byte(nil), cw...)
	fastFlips, fastIters, fastErr := d.decodeIter(fastCW, llr, maxIter, guard)
	refFlips, refIters, refErr := scalarDecodeIter(d, refCW, llr, maxIter, guard)
	if fastIters != refIters {
		t.Fatalf("level %d nerr %d soft=%v: SoA kernel used %d iterations, scalar %d",
			lvl, nerr, soft, fastIters, refIters)
	}
	if fastFlips != refFlips || !errors.Is(fastErr, refErr) && (fastErr != nil || refErr != nil) {
		t.Fatalf("level %d nerr %d soft=%v: SoA (flips=%d err=%v) vs scalar (flips=%d err=%v)",
			lvl, nerr, soft, fastFlips, fastErr, refFlips, refErr)
	}
	if !bytes.Equal(fastCW, refCW) {
		t.Fatalf("level %d nerr %d soft=%v: decoded codewords diverged", lvl, nerr, soft)
	}
}

// poisonLLR overwrites the positions a byte string names — three bytes
// each: a 16-bit position (mod the length) and the int8 value — with
// whatever it names. The decoder's soft-input contract says signs agree
// with the hard decisions; nothing enforces it, so the kernel must match
// the reference on zeros, disagreeing signs and the int8 extremes too.
func poisonLLR(llr []int8, poison []byte) {
	for ; len(poison) >= 3; poison = poison[3:] {
		llr[(int(poison[0])<<8|int(poison[1]))%len(llr)] = int8(poison[2])
	}
}

// TestMinSumScalarEquivalence replays the conformance error matrix
// ({1, cap/2, cap} errors per level, a 3*cap guard-breaker, and the
// soft-cap soft decode) through both the production struct-of-arrays
// kernel and the scalar reference, asserting identical iteration
// counts, flip counts, error verdicts and output bytes. This is the
// bit-exactness contract of the word-parallel refactor: the SoA pass
// is a reorganisation of the same arithmetic, not an approximation.
// A second matrix leaves the contract the device model keeps: LLRs with
// zeros, signs against the hard decision and the int8 extremes (which
// the ±96 clamp then meets), and hard inputs at 3·cap and 4·cap that
// stall out.
func TestMinSumScalarEquivalence(t *testing.T) {
	c := testRig(t)
	check := func(lvl, nerr int, soft bool, cw []byte, llr []int8, maxIter, guard int) {
		t.Helper()
		assertEquivalent(t, c, lvl, nerr, soft, cw, llr, maxIter, guard)
	}
	for lvl := 0; lvl <= c.MaxLevel(); lvl++ {
		hardCap := c.CorrectionCap(lvl)
		for _, nerr := range []int{1, hardCap / 2, hardCap, 3 * hardCap} {
			rng := stats.NewRNG(900 + uint64(lvl*131+nerr))
			cw := makeCodeword(t, c, lvl, 900+uint64(lvl*131+nerr))
			flip(cw, nerr, rng)
			check(lvl, nerr, false, cw, nil, maxIterHard, flipGuard(hardCap))
		}
		softCap := c.SoftCorrectionCap(lvl)
		rng := stats.NewRNG(3100 + uint64(lvl))
		cw := makeCodeword(t, c, lvl, 3100+uint64(lvl))
		pos := flip(cw, softCap, rng)
		llr := softLLR(cw, pos, rng)
		check(lvl, softCap, true, cw, llr, maxIterSoft, flipGuard(softCap))
	}

	poisonVals := []int8{0, 127, -127, -128, 7, -7, 1, -1}
	for lvl := 0; lvl <= c.MaxLevel(); lvl++ {
		hardCap := c.CorrectionCap(lvl)
		for _, nerr := range []int{3 * hardCap, 4 * hardCap} {
			rng := stats.NewRNG(7000 + uint64(lvl*131+nerr))
			cw := makeCodeword(t, c, lvl, 7000+uint64(lvl*131+nerr))
			flip(cw, nerr, rng)
			check(lvl, nerr, false, cw, nil, maxIterHard, flipGuard(hardCap))
		}
		for _, nerr := range []int{c.SoftCorrectionCap(lvl) / 2, c.SoftCorrectionCap(lvl)} {
			rng := stats.NewRNG(5200 + uint64(lvl*131+nerr))
			cw := makeCodeword(t, c, lvl, 5200+uint64(lvl*131+nerr))
			llr := softLLR(cw, flip(cw, nerr, rng), rng)
			var poison []byte
			for i := 0; i < 96; i++ {
				poison = append(poison, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(poisonVals[i%len(poisonVals)]))
			}
			poisonLLR(llr, poison)
			check(lvl, nerr, true, cw, llr, maxIterSoft, flipGuard(c.SoftCorrectionCap(lvl)))
		}
	}
}

// pageCodec is the page-sized codec, built once for the fuzz workers.
var pageCodec = sync.OnceValues(NewPageCodec)

// FuzzMinSumEquivalence is TestMinSumScalarEquivalence with the input
// chosen by the fuzzer: any level, any error weight up to 4·cap (hard)
// or 2·soft cap (soft), any RNG seed, and any poisoned LLR positions.
func FuzzMinSumEquivalence(f *testing.F) {
	f.Add(uint8(0), uint16(1), false, uint64(1), []byte(nil))
	f.Add(uint8(5), uint16(72), false, uint64(2), []byte(nil))
	f.Add(uint8(2), uint16(120), false, uint64(3), []byte(nil))
	f.Add(uint8(5), uint16(200), true, uint64(4), []byte{0, 9, 0, 0x40, 1, 0x80, 0x7f, 0xff, 0x7f})
	f.Add(uint8(1), uint16(3), true, uint64(5), []byte{0x10, 0, 0x81, 0x33, 0x33, 0xf9, 0x21, 7, 0})

	f.Fuzz(func(t *testing.T, level uint8, weight uint16, soft bool, seed uint64, poison []byte) {
		c, err := pageCodec()
		if err != nil {
			t.Fatal(err)
		}
		lvl := int(level) % (c.MaxLevel() + 1)
		limit, maxIter, guard := 4*c.CorrectionCap(lvl), maxIterHard, flipGuard(c.CorrectionCap(lvl))
		if soft {
			limit, maxIter, guard = 2*c.SoftCorrectionCap(lvl), maxIterSoft, flipGuard(c.SoftCorrectionCap(lvl))
		}
		nerr := int(weight) % (limit + 1)
		rng := stats.NewRNG(seed)
		cw := makeCodeword(t, c, lvl, seed)
		pos := flip(cw, nerr, rng)
		var llr []int8
		if soft {
			llr = softLLR(cw, pos, rng)
			poisonLLR(llr, poison)
		}
		assertEquivalent(t, c, lvl, nerr, soft, cw, llr, maxIter, guard)
	})
}

// TestSignBitPredicates pins the two integer-domain predicates the
// kernel's exactness rests on: negBit is f < 0 (so -0.0 is not
// negative), and the sign-cleared patterns order as the magnitudes do.
func TestSignBitPredicates(t *testing.T) {
	table := []float32{0, math.SmallestNonzeroFloat32, 1, minSumAlpha, llrClamp, 2 * llrClamp,
		math.MaxFloat32, float32(math.Inf(1))}
	for _, f := range table {
		table = append(table, -f)
	}
	fs := table
	rng := stats.NewRNG(0x5167b175)
	for len(fs) < len(table)+100000 {
		if f := math.Float32frombits(uint32(rng.Uint64())); !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
			fs = append(fs, f)
		}
	}
	sameOrder := func(f, g float32) {
		t.Helper()
		a, b := math.Float32bits(f)&^signBit, math.Float32bits(g)&^signBit
		af, ag := math.Abs(float64(f)), math.Abs(float64(g))
		if (a < b) != (af < ag) || (a == b) != (af == ag) {
			t.Fatalf("|%g| vs |%g|: patterns %#08x, %#08x order differently from the magnitudes", f, g, a, b)
		}
	}
	for i, f := range fs {
		if b := math.Float32bits(f); (negBit(b) == 1) != (f < 0) {
			t.Fatalf("%g (%#08x): negBit is %d, f < 0 is %v", f, b, negBit(b), f < 0)
		}
		for _, g := range table {
			sameOrder(f, g)
		}
		if i > 0 {
			sameOrder(f, fs[i-1])
		}
	}
}

// TestPackSignsMatchesScalarRepack pins the branch-free repack against
// the reference's "if post < 0" loop on posteriors that include +0 and
// -0 (both non-negative) beside ordinary and extreme values.
func TestPackSignsMatchesScalarRepack(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	special := []float32{0, negZero, 1, -1, llrClamp, -llrClamp, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32}
	rng := stats.NewRNG(0x9ac4)
	post := make([]float32, 4*Z)
	for v := range post {
		if post[v] = special[rng.Intn(len(special))]; rng.Bernoulli(0.5) {
			post[v] = float32(rng.Intn(193)-96) / 2
		}
	}
	post[0], post[Z-1], post[Z] = negZero, negZero, 0
	got, want := make([]uint64, 4), make([]uint64, 4)
	packSigns(got, post)
	for w := range want {
		for b := 0; b < Z; b++ {
			if post[w*Z+b] < 0 {
				want[w] |= 1 << uint(63-b)
			}
		}
	}
	for w := range want {
		if got[w] != want[w] {
			t.Fatalf("word %d: packSigns %#016x, scalar repack %#016x", w, got[w], want[w])
		}
	}
}
