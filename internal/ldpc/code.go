// Package ldpc implements the repo's second ECC family: a rate-
// compatible quasi-cyclic LDPC codec with systematic encoding and
// normalized min-sum decoding, hard- and soft-input. It is the
// soft-decision endgame the recovery literature converges on (Cai et
// al., arXiv:1805.02819; Luo, arXiv:1808.04016): when hard re-reads at
// shifted references stop helping, multi-sense per-bit confidence fed
// to a soft-input iterative decoder recovers roughly another order of
// magnitude of raw bit errors.
//
// # Construction
//
// Each capability level is a systematic quasi-cyclic irregular
// repeat-accumulate (QC-IRA) code sharing the page geometry: k = 32768
// message bits plus m parity bits, m growing with the level (the "rate
// index"). The parity-check matrix is H = [A | T]:
//
//   - A is quasi-cyclic with circulant size Z = 64: every message
//     block-column connects to WC distinct check block-rows through
//     cyclically shifted identity blocks, the (row, shift) pairs drawn
//     from a deterministic hash — column weight WC, one shared field-
//     free structure per level;
//   - T is the dual-diagonal accumulator: parity bit i participates in
//     checks i and i+1. That staircase makes systematic encoding a
//     prefix-XOR (O(n), no matrix inversion) while keeping H sparse —
//     the defining LDPC property min-sum needs.
//
// Z = 64 aligns circulant rows with machine words: encoding and the
// per-iteration syndrome check are word-parallel rotate-XOR streams, so
// the clean-page fast path (syndrome already zero) costs one pass over
// the codeword, mirroring the BCH decoder's early termination.
package ldpc

import (
	"errors"
	"fmt"
	"hash/crc64"
	"math/bits"
)

// ErrUncorrectable is returned when min-sum fails to converge on a
// valid codeword (or refuses a convergence that looks like a
// miscorrection). The codeword is left unmodified.
var ErrUncorrectable = errors.New("ldpc: uncorrectable codeword")

// Z is the circulant size; one machine word per circulant row keeps the
// encoder and syndrome kernels word-parallel.
const Z = 64

// WC is the message column weight: every message bit participates in
// exactly WC parity checks. Column weight 4 is the flash-LDPC
// standard: at these very high rates it buys substantially better
// minimum distance (miscorrection resistance) and a harder decoding
// cliff than weight 3, at ~30% more edge work per iteration.
const WC = 4

// crcBits is the embedded integrity word: every codeword carries a
// CRC64 of the host message INSIDE the LDPC-protected extent (one
// extra block-column), so honest channel errors on the CRC are
// corrected like any other bit while a min-sum convergence onto a
// wrong codeword — possible for any iterative decoder pushed past its
// rating — fails the CRC and is reported uncorrectable instead of
// returned as data. This is the detect-layer real LDPC controllers
// pair with the decoder; it is what makes the family safe to put
// behind the ladder's "decode success means correct data" contract.
const crcBits = 64

// crcTable is the ECMA CRC64 table (built once; Checksum is
// allocation-free).
var crcTable = crc64.MakeTable(crc64.ECMA)

// Params describes a rate-compatible codec: one message geometry, one
// parity footprint per capability level (ascending), and the calibrated
// correction capabilities the reliability model keys on.
type Params struct {
	// K is the protected message length in bits (a multiple of Z·8).
	K int
	// ParityBits holds the parity length of each level, ascending; each
	// must be a positive multiple of Z and of 8.
	ParityBits []int
	// HardCap and SoftCap are the calibrated per-level correction
	// capabilities (raw bit errors per codeword the hard-input and
	// soft-input decodes reliably repair). Conservative by design:
	// the iterative decoder's true cliff sits well above them.
	HardCap []int
	SoftCap []int
}

// Validate rejects malformed parameter sets.
func (p Params) Validate() error {
	if p.K <= 0 || p.K%Z != 0 {
		return fmt.Errorf("ldpc: message length %d not a positive multiple of %d", p.K, Z)
	}
	if len(p.ParityBits) == 0 {
		return fmt.Errorf("ldpc: no capability levels")
	}
	if len(p.HardCap) != len(p.ParityBits) || len(p.SoftCap) != len(p.ParityBits) {
		return fmt.Errorf("ldpc: capability tables (%d hard, %d soft) do not cover %d levels",
			len(p.HardCap), len(p.SoftCap), len(p.ParityBits))
	}
	prev := 0
	for i, m := range p.ParityBits {
		if m <= 0 || m%Z != 0 {
			return fmt.Errorf("ldpc: level %d parity %d not a positive multiple of %d", i, m, Z)
		}
		if m <= prev {
			return fmt.Errorf("ldpc: parity lengths not ascending at level %d", i)
		}
		if m/Z < WC {
			return fmt.Errorf("ldpc: level %d parity %d has fewer than %d block-rows", i, m, WC)
		}
		prev = m
	}
	return nil
}

// PageParams returns the paper-geometry instantiation: k = 4 KB page =
// 32768 bits, six rate levels whose spare footprint (8 B CRC + 64 B up
// to 216 B of parity) shares the BCH spare-area budget of 224 B, with
// capability tables calibrated against the package's own decoder (see
// TestCalibratedCaps).
func PageParams() Params {
	return Params{
		K:          32768,
		ParityBits: []int{512, 768, 1024, 1280, 1536, 1728},
		HardCap:    pageHardCap,
		SoftCap:    pageSoftCap,
	}
}

// Calibrated correction capabilities of the page geometry, measured by
// Monte-Carlo sweeps of this decoder (TestCalibratedCaps re-verifies
// them with margin on every run): the highest error weights at which
// random patterns decode reliably every time, derated ~25-30% for
// safety and forced monotone across levels. Soft input buys ~3-5x over
// hard input — the multi-sense confidence flags most erroneous bits as
// weak, so only the "confidently wrong" residue behaves like hard
// errors — which compounds with the reference-shift ladder into the
// order-of-magnitude recovery the literature reports.
var (
	pageHardCap = []int{10, 20, 32, 40, 56, 72}
	pageSoftCap = []int{24, 60, 110, 170, 240, 300}
)

// blockEdge is one circulant block of the A part: the message
// block-column connects check block-row Row with cyclic shift Shift.
type blockEdge struct {
	Row   uint16
	Shift uint16
}

// code is one built level: the QC structure, its flat adjacency for
// min-sum and the word-parallel tables for encode/syndrome.
type code struct {
	kHost   int // host message bits (the 4 KB page)
	k, m, n int // protected message (host + CRC), parity, codeword bits
	level   int

	// blocks[j] lists the WC circulant blocks of message block-column j.
	blocks [][WC]blockEdge

	// Flat check adjacency for min-sum: checkVar[checkStart[c]:
	// checkStart[c+1]] are the codeword bit indices of check c.
	checkStart []int32
	checkVar   []int32
	edges      int
}

// deltaGuard is the exclusion radius around a used shift delta: new
// placements on the same block-row pair must differ by more than this
// many circulant positions, so no two columns' checks land within
// deltaGuard accumulator steps of each other on a shared row pair.
const deltaGuard = 3

// rotr is a right rotation (RotateLeft with negated count, named for
// the encoder's readability).
func rotr(w uint64, n int) uint64 { return bits.RotateLeft64(w, -n) }

// guardMask returns the Z-bit window of deltas excluded around d.
func guardMask(d int) uint64 {
	m := uint64(0)
	for o := -deltaGuard; o <= deltaGuard; o++ {
		m |= 1 << uint((d+o+Z)%Z)
	}
	return m
}

// splitmix is the deterministic hash behind the QC structure: one
// avalanche round of SplitMix64, seeded per (level, column, slot).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// buildCode constructs level lvl of the parameter set. The structure is
// deterministic but engineered, not merely hashed: block-rows are
// assigned by a least-loaded heuristic (near-regular check degrees
// decode measurably better than hash-lucky ones), and circulant shifts
// are chosen greedily to avoid length-4 cycles — two block-columns
// sharing two block-rows with equal shift difference close a 4-cycle in
// every circulant position at once, the dominant failure mode of random
// QC constructions. High-rate levels cannot avoid all collisions (the
// delta classes saturate); the greedy walk then minimises them.
func buildCode(p Params, lvl int) *code {
	m := p.ParityBits[lvl]
	pb := m / Z
	kExt := p.K + crcBits // the CRC word is one more protected block-column
	cols := kExt / Z
	c := &code{kHost: p.K, k: kExt, m: m, n: kExt + m, level: lvl}
	c.blocks = make([][WC]blockEdge, cols)

	rowLoad := make([]int, pb)
	// usedDelta[r1*pb+r2] is a Z-bit mask of the shift differences
	// already spent on the block-row pair (r1 < r2).
	usedDelta := make([]uint64, pb*pb)
	for j := 0; j < cols; j++ {
		var rows [WC]int
		var shifts [WC]int
		for i := 0; i < WC; i++ {
			// Seeded by the parity geometry (not the level index), so a
			// code is identified by its footprint alone and re-slicing
			// the level table never reshuffles existing matrices.
			h := splitmix(uint64(m)<<40 ^ uint64(j)<<8 ^ uint64(i))

			// Least-loaded row within the slot's stratum, hash as
			// tie-break, never adjacent to the previous slot's row.
			// Stratifying each column's rows across the check space —
			// with at least one full circulant block between consecutive
			// picks — keeps its WC check anchors ≥ Z+1 accumulator
			// positions apart for every bit of the block-column. The
			// accumulator turns those gaps into parity weight, so no
			// single column can form the low-weight codewords that make
			// an iterative decoder miscorrect.
			sLo := i * pb / WC
			sHi := (i + 1) * pb / WC
			// The hash offset is reduced in uint64 first: int(h>>12)
			// would go negative where int is 32 bits.
			row, best := -1, int(^uint(0)>>1)
			off := int((h >> 12) % uint64(sHi-sLo))
			for r := sLo; r < sHi; r++ {
				cand := sLo + (r-sLo+off)%(sHi-sLo)
				// Avoid adjacent block-rows across consecutive slots when
				// the stratum is big enough to afford it (two-block
				// strata would degenerate): adjacency lets a column's
				// check gap shrink to one accumulator step.
				if i > 0 && sHi-sLo >= 3 && cand-rows[i-1] < 2 {
					continue
				}
				if rowLoad[cand] < best {
					row, best = cand, rowLoad[cand]
				}
			}
			if row < 0 {
				row = sHi - 1 // stratum exhausted by the adjacency rule
			}
			rows[i] = row
			rowLoad[row]++

			// Greedy shift: prefer a candidate whose deltas against the
			// column's earlier blocks stay clear of every used delta's
			// guard band; otherwise the candidate with the fewest
			// near-collisions. An exact delta repeat closes a 4-cycle; a
			// delta within ±deltaGuard of a used one puts two columns'
			// checks a few accumulator positions apart, which the
			// staircase converts into a low-weight codeword — the
			// miscorrection seed the guard band exists to kill.
			base := int((h >> 24) % Z)
			bestShift, bestColl := base, int(^uint(0)>>1)
			for probe := 0; probe < Z; probe++ {
				s := (base + probe) % Z
				coll := 0
				for k := 0; k < i; k++ {
					r1, r2, d := rows[k], row, (shifts[k]-s+Z)%Z
					if r1 > r2 {
						r1, r2, d = r2, r1, (Z-d)%Z
					}
					if usedDelta[r1*pb+r2]&guardMask(d) != 0 {
						coll++
					}
				}
				if coll < bestColl {
					bestShift, bestColl = s, coll
				}
				if coll == 0 {
					break
				}
			}
			shifts[i] = bestShift
			for k := 0; k < i; k++ {
				r1, r2, d := rows[k], row, (shifts[k]-bestShift+Z)%Z
				if r1 > r2 {
					r1, r2, d = r2, r1, (Z-d)%Z
				}
				usedDelta[r1*pb+r2] |= 1 << uint(d)
			}
			c.blocks[j][i] = blockEdge{Row: uint16(row), Shift: uint16(bestShift)}
		}
	}
	c.buildAdjacency()
	return c
}

// buildAdjacency flattens H into the per-check variable lists min-sum
// traverses, via a counting sort over check indices.
func (c *code) buildAdjacency() {
	deg := make([]int32, c.m)
	for _, col := range c.blocks {
		for _, be := range col {
			base := int(be.Row) * Z
			for z := 0; z < Z; z++ {
				deg[base+(z+int(be.Shift))%Z]++
			}
		}
	}
	for i := 0; i < c.m; i++ {
		deg[i]++ // parity bit i in check i
		if i+1 < c.m {
			deg[i+1]++ // ... and in check i+1
		}
	}
	c.checkStart = make([]int32, c.m+1)
	for i := 0; i < c.m; i++ {
		c.checkStart[i+1] = c.checkStart[i] + deg[i]
	}
	c.edges = int(c.checkStart[c.m])
	c.checkVar = make([]int32, c.edges)
	fill := make([]int32, c.m)
	copy(fill, c.checkStart[:c.m])
	put := func(check, v int) {
		c.checkVar[fill[check]] = int32(v)
		fill[check]++
	}
	for j, col := range c.blocks {
		for _, be := range col {
			base := int(be.Row) * Z
			for z := 0; z < Z; z++ {
				put(base+(z+int(be.Shift))%Z, j*Z+z)
			}
		}
	}
	for i := 0; i < c.m; i++ {
		put(i, c.k+i)
		if i+1 < c.m {
			put(i+1, c.k+i)
		}
	}
}

// msgSyndrome accumulates the A-part contribution of the packed message
// words into s (len m/Z), word-parallel: one rotate-XOR per circulant
// block. Message bit j·Z+z occupies bit 63-z of word j (big-endian,
// MSB-first byte order — the repo's bit convention).
func (c *code) msgSyndrome(s []uint64, mw []uint64) {
	for i := range s {
		s[i] = 0
	}
	for j, col := range c.blocks {
		w := mw[j]
		if w == 0 {
			continue
		}
		for _, be := range col {
			s[be.Row] ^= bits.RotateLeft64(w, -int(be.Shift))
		}
	}
}

// syndromeZero reports whether the full parity check H·cw = 0 holds for
// hard decisions given as packed words (message words then parity
// words). Check i = (A·msg)_i ⊕ p_{i-1} ⊕ p_i.
func (c *code) syndromeZero(cw []uint64, scratch []uint64) bool {
	pw := cw[c.k/Z:]
	c.msgSyndrome(scratch, cw[:c.k/Z])
	var carry uint64 // p_{i-1} crossing a word boundary: LSB of the previous word
	for r := range scratch {
		prev := pw[r] >> 1
		if carry != 0 {
			prev |= 1 << 63
		}
		if scratch[r]^pw[r]^prev != 0 {
			return false
		}
		carry = pw[r] & 1
	}
	return true
}
