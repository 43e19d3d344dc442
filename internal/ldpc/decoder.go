package ldpc

import (
	"encoding/binary"
	"math"
	"math/bits"

	"xlnand/internal/freelist"
)

// Decoding parameters. Min-sum is scale-invariant in the channel LLRs,
// so the hard-input channel is ±1 and the soft-input channel uses the
// device's quantised confidence directly; the normalization factor and
// the posterior clamp are the two standard knobs.
const (
	// minSumAlpha is the normalized-min-sum scaling of check-to-variable
	// messages (compensates min-sum's overestimate vs sum-product).
	minSumAlpha = 0.78
	// llrClamp bounds posterior magnitudes for numerical sanity.
	llrClamp = 96.0
	// maxIterHard / maxIterSoft bound the iteration count per decode.
	maxIterHard = 32
	maxIterSoft = 40
	// stallPatience aborts a decode whose unsatisfied-check count has
	// not improved for this many iterations — hopeless inputs (far past
	// the decoding cliff) then fail in a handful of iterations instead
	// of burning the full budget.
	stallPatience = 6
)

// Decoder is the min-sum engine of one capability level: a layered
// normalized min-sum whose check pass works on float32 bit patterns
// without a data-dependent branch. It is safe for concurrent use: all
// mutable state lives in scratch taken from a free list for the length
// of one decode (a free list, not a sync.Pool, so that the
// zero-allocation tests do not depend on when the collector runs).
type Decoder struct {
	c    *code
	pool freelist.List[decodeScratch]
}

// decodeScratch is one decode's working set: posterior LLRs, per-edge
// check-to-variable messages, and the packed hard-decision words the
// word-parallel syndrome check runs over, repacked from the posterior
// signs once per iteration. q holds one check's variable-to-check
// values between the kernel's two sweeps (sized for the widest check);
// cww holds the received word packed once per decode so the convergence
// flip count never re-reads the codeword bytes.
type decodeScratch struct {
	post []float32 // posterior LLR per codeword bit
	r    []float32 // check-to-variable message per edge
	hard []uint64  // packed hard decisions (n/64 words)
	syn  []uint64  // syndrome scratch (m/64 words)
	out  []byte    // byte image of a convergence, for the CRC verdict
	cww  []uint64  // received word, packed once at decode start
	q    []float32 // per-check q block (variable-to-check values)
}

func newDecoder(c *code) *Decoder {
	d := &Decoder{c: c}
	maxDeg := 0
	for ci := 0; ci < c.m; ci++ {
		if deg := int(c.checkStart[ci+1] - c.checkStart[ci]); deg > maxDeg {
			maxDeg = deg
		}
	}
	d.pool.New = func() *decodeScratch {
		return &decodeScratch{
			post: make([]float32, c.n),
			r:    make([]float32, c.edges),
			hard: make([]uint64, c.n/Z),
			syn:  make([]uint64, c.m/Z),
			out:  make([]byte, c.n/8),
			cww:  make([]uint64, c.n/Z),
			q:    make([]float32, maxDeg),
		}
	}
	// One scratch up front: a sensed decode of a clean read takes none,
	// so the first decode that does may be a rare corrupted read on an
	// otherwise steady-state path.
	d.pool.Put(d.pool.New())
	return d
}

// packWords packs the codeword bytes into big-endian words (bit v at
// position 63-v%64 of word v/64 — the encoder's convention).
func packWords(dst []uint64, cw []byte) {
	for i := range dst {
		dst[i] = binary.BigEndian.Uint64(cw[i*8:])
	}
}

// decode runs normalized min-sum. llr is nil for hard-input decoding
// (channel = ±1 from the codeword bits); otherwise one signed
// confidence per codeword bit, sign agreeing with the hard decisions.
// flipGuard bounds the accepted repair size: a convergence that flips
// more bits is refused as uncorrectable — beyond-rating inputs
// occasionally converge onto a *wrong* codeword, and refusing outsized
// repairs turns that rare silent miscorrection into an honest failure
// (the rung above, or the FTL's lost-page path, then owns the page).
// On success the corrected word is written back into cw and the number
// of flipped bits returned; on failure cw is untouched.
func (d *Decoder) decode(cw []byte, llr []int8, maxIter, flipGuard int) (int, error) {
	flips, _, err := d.decodeIter(cw, llr, maxIter, flipGuard)
	return flips, err
}

// decodeIter is decode additionally reporting the min-sum iterations
// consumed — the raw observable the measured-latency calibration tables
// are built from. The early-termination fast path counts as zero
// iterations (it is one syndrome pass, already priced separately by the
// latency model).
func (d *Decoder) decodeIter(cw []byte, llr []int8, maxIter, flipGuard int) (int, int, error) {
	c := d.c
	s := d.pool.Get()
	defer d.pool.Put(s)

	// Fast path: the stored codeword may already be consistent — one
	// word-parallel syndrome pass, no scratch initialisation beyond the
	// packed words (the common case for young media). A zero syndrome
	// with a failing CRC means the channel hit an exact codeword-shaped
	// error pattern; iterating cannot move off a fixed point, so the
	// verdict is immediate.
	packWords(s.hard, cw)
	if c.syndromeZero(s.hard, s.syn) {
		if !c.crcOK(cw) {
			return 0, 0, ErrUncorrectable
		}
		return 0, 0, nil
	}
	// The received word, kept packed for the duration of the decode:
	// the convergence flip count diffs hard-decision words against these
	// instead of re-reading cw's bytes every accepted iteration.
	copy(s.cww, s.hard)

	// Channel initialisation: ±1 straight from the packed received word
	// (1.0 with the bit moved into the sign position), or the LLRs.
	post := s.post
	if llr == nil {
		for v := range post {
			bit := uint32(s.hard[v/Z]>>uint(63-v%Z)) & 1
			post[v] = math.Float32frombits(oneBits | bit<<31)
		}
	} else {
		for v := range post {
			post[v] = float32(llr[v])
		}
	}
	clear(s.r)

	bestUnsat := c.m + 1
	stall := 0
	for iter := 0; iter < maxIter; iter++ {
		// Layered check-node pass, in the stored check order (the
		// dual-diagonal part couples check i to i+1).
		for ci := 0; ci < c.m; ci++ {
			lo, hi := c.checkStart[ci], c.checkStart[ci+1]
			updateCheck(post, c.checkVar[lo:hi], s.r[lo:hi], s.q)
		}
		packSigns(s.hard, post)
		unsat := c.unsatisfied(s.hard, s.syn)
		if unsat == 0 {
			flips := 0
			for w, word := range s.hard {
				flips += bits.OnesCount64(word ^ s.cww[w])
			}
			if flips > flipGuard {
				return 0, iter + 1, ErrUncorrectable
			}
			// The embedded CRC is the authoritative verdict: a min-sum
			// convergence onto a wrong codeword (possible past the
			// rating) fails it and surfaces as an honest uncorrectable
			// instead of silent corruption.
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

// unsatisfied counts failing parity checks for the packed hard
// decisions (the stall detector's progress metric).
func (c *code) unsatisfied(cw []uint64, scratch []uint64) int {
	pw := cw[c.k/Z:]
	c.msgSyndrome(scratch, cw[:c.k/Z])
	var carry uint64
	unsat := 0
	for r := range scratch {
		prev := pw[r] >> 1
		if carry != 0 {
			prev |= 1 << 63
		}
		unsat += bits.OnesCount64(scratch[r] ^ pw[r] ^ prev)
		carry = pw[r] & 1
	}
	return unsat
}

// updateCheck is one check node of the layered pass: two branch-free
// sweeps over the check's contiguous edge block (vs its variables, rs
// its messages, qs scratch for the widest check). It is a function of
// its own so min1, min2 and the parity bit live in registers for the
// length of a sweep, which they do not inside decodeIter's frame.
//
// The float arithmetic is the scalar reference's, operation for
// operation (post - r, min·α, q + nr, the clamp); everything about signs
// and magnitudes is done on the bit patterns instead. "q < 0" is
// negBit, an unsigned compare true for exactly the negative values, and
// the check parity is a running XOR of it. |q| is the pattern with the
// sign cleared, and because integer order equals float order on
// non-negative non-NaN floats, min1/min2 are tracked as uint32 with
// min/max, which compile to conditional moves. The apply sweep
// recognises the minimum edge by magnitude (a tie forces min2 == min1,
// so either message value is the same), recomputes the edge's own sign
// from the stored q, and sets the message sign by XOR on the float's
// sign bit — the reference's conditional negation for every value, with
// at most the sign of a zero differing in intermediates, which no
// comparison or hard decision can observe.
func updateCheck(post []float32, vs []int32, rs, qs []float32) {
	rs, qs = rs[:len(vs)], qs[:len(vs)]
	min1, min2 := uint32(minInitBits), uint32(minInitBits)
	var odd uint32
	for j, v := range vs {
		q := post[v] - rs[j]
		qs[j] = q
		b := math.Float32bits(q)
		odd ^= negBit(b)
		a := b &^ signBit
		min2 = min(min2, max(min1, a))
		min1 = min(min1, a)
	}
	parity := odd << 31
	m1 := math.Float32bits(math.Float32frombits(min1) * minSumAlpha)
	m2 := math.Float32bits(math.Float32frombits(min2) * minSumAlpha)
	for j, v := range vs {
		q := qs[j]
		b := math.Float32bits(q)
		mag := m1
		if b&^signBit == min1 {
			mag = m2
		}
		// Sign: product of the *other* incoming signs — the total
		// parity, with this edge's own sign divided out.
		nr := math.Float32frombits(mag ^ parity ^ negBit(b)<<31)
		p := q + nr
		if p > llrClamp {
			p = llrClamp
		} else if p < -llrClamp {
			p = -llrClamp
		}
		rs[j] = nr
		post[v] = p
	}
}

// packSigns repacks the hard decisions from the posterior signs (bit v
// set iff post[v] < 0, in packWords' layout), once per iteration rather
// than per edge: every variable is in at least one check, so a per-edge
// update would touch each word several times to leave these same bits.
func packSigns(dst []uint64, post []float32) {
	for w := range dst {
		var word uint64
		for b, p := range post[w*Z : w*Z+Z] {
			word |= uint64(negBit(math.Float32bits(p))) << uint(63-b)
		}
		dst[w] = word
	}
}

// Float32 bit patterns the check kernel works on.
const (
	signBit     = 1 << 31
	oneBits     = 0x3f800000 // 1.0
	minInitBits = 0x43400000 // 2·llrClamp = 192.0, the reference's initial minimum
)

// negBit is 1 for the bit pattern of a negative float32 and 0 otherwise
// — f < 0 exactly, so -0.0 (signBit itself) is not negative — as a flag
// set rather than a branch.
func negBit(b uint32) uint32 {
	if b > signBit {
		return 1
	}
	return 0
}
