package bch

import (
	"sync"
	"sync/atomic"

	"xlnand/internal/gf"
)

// SyndromeCalc computes the 2t codeword syndromes S_j = C(alpha^j),
// j = 1..2t. This is the software equivalent of the decoder's syndrome
// block: one parallel LFSR per generating polynomial psi_i followed by an
// evaluation network (paper §4).
//
// The implementation processes the codeword one byte at a time (p = 8),
// computing only the odd syndromes directly and deriving even ones via
// the binary-code identity S_2j = S_j^2 (Frobenius: C(alpha^2j) =
// C(alpha^j)^2 for binary C). All odd syndromes advance together in a
// single pass over the codeword: the per-byte lookup values for every
// odd j live in one interleaved table (row b holds the contribution of
// byte value b to every S_j), so a 4KB page is walked once, not once
// per syndrome.
//
// Tables depend only on the field, not on t, so one SyndromeCalc serves
// every correction capability of an adaptive codec. The table set is
// published through an atomic pointer: once Prepare(t) has run (eagerly
// at decoder construction / Codec.Warm), Syndromes is lock-free — the
// mutex is only ever taken to grow the set for a larger t.
type SyndromeCalc struct {
	f *gf.Field

	tbl atomic.Pointer[synTables] // current immutable table set
	mu  sync.Mutex                // serialises growth only
}

// synTables is an immutable snapshot of the per-odd-j lookup tables,
// interleaved so that one codeword byte touches one contiguous row.
type synTables struct {
	nOdd  int      // number of odd exponents covered: j = 1, 3, .. 2*nOdd-1
	steps []int    // steps[i] = 8*j mod N for j = 2i+1 (per-byte Horner multiplier)
	v     []uint16 // v[b*nOdd+i] = contribution of byte value b to S_{2i+1}
}

// synCalcs holds the one calculator of each field. Fields are
// process-wide (gf.NewField) and a calculator's tables depend on nothing
// else — 33 KB at t = 65 — so every drive's Codec shares them.
var synCalcs sync.Map // *gf.Field -> *SyndromeCalc

// NewSyndromeCalc returns the field's calculator, creating it on first
// request.
func NewSyndromeCalc(f *gf.Field) *SyndromeCalc {
	if s, ok := synCalcs.Load(f); ok {
		return s.(*SyndromeCalc)
	}
	s, _ := synCalcs.LoadOrStore(f, &SyndromeCalc{f: f})
	return s.(*SyndromeCalc)
}

// Prepare eagerly builds the lookup tables for every odd j needed at
// correction capability t (j = 1..2t-1), so that subsequent Syndromes
// calls at capability <= t never take a lock. It is idempotent and safe
// for concurrent use.
func (s *SyndromeCalc) Prepare(t int) {
	if t <= 0 {
		panic("bch: non-positive t")
	}
	if tb := s.tbl.Load(); tb != nil && tb.nOdd >= t {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.tbl.Load()
	if old != nil && old.nOdd >= t {
		return
	}
	nOdd := t
	nt := &synTables{
		nOdd:  nOdd,
		steps: make([]int, nOdd),
		v:     make([]uint16, 256*nOdd),
	}
	N := s.f.N()
	for i := 0; i < nOdd; i++ {
		j := 2*i + 1
		nt.steps[i] = (8 * j) % N
		// Bit u counted from MSB has in-byte degree 7-u.
		var single [8]uint32
		for u := 0; u < 8; u++ {
			single[u] = s.f.Alpha(j * (7 - u) % N)
		}
		for b := 0; b < 256; b++ {
			var acc uint32
			for u := 0; u < 8; u++ {
				if b>>(7-uint(u))&1 == 1 {
					acc ^= single[u]
				}
			}
			nt.v[b*nOdd+i] = uint16(acc)
		}
	}
	s.tbl.Store(nt)
}

// tables returns a snapshot covering capability t, building one if
// needed (slow path, construction time only).
func (s *SyndromeCalc) tables(t int) *synTables {
	if tb := s.tbl.Load(); tb != nil && tb.nOdd >= t {
		return tb
	}
	s.Prepare(t)
	return s.tbl.Load()
}

// SyndromesInto computes S_1..S_2t (index 0 holds S_1) of the codeword
// bytes, whose first byte's MSB is the coefficient of x^(8·len-1), into
// dst, which must have at least 2t entries, and returns dst[:2t]. It
// performs no allocation and — once Prepare(t) has run — takes no lock:
// this is the steady-state decode hot path.
func (s *SyndromeCalc) SyndromesInto(dst []uint32, codeword []byte, t int) []uint32 {
	if t <= 0 {
		panic("bch: non-positive t")
	}
	syn := dst[:2*t]
	for i := range syn {
		syn[i] = 0
	}
	tb := s.tables(t)
	nOdd := tb.nOdd
	steps := tb.steps[:t]
	log, exp := s.f.Tables()

	// Fused odd-syndrome pass: one walk over the codeword advances every
	// odd accumulator. acc[i] holds S_{2i+1}; the per-byte Horner step is
	// acc = acc*alpha^(8j) + v[b][i], the multiply being gf.MulAlphaN's
	// contract (no modulo, no range check — the antilog table is doubled)
	// open-coded on hoisted table slices: a method call per element costs
	// ~35% of the kernel because the table headers reload every call.
	acc := syn[:t]
	for _, b := range codeword {
		row := tb.v[int(b)*nOdd : int(b)*nOdd+t]
		for i, rv := range row {
			a := acc[i]
			if a != 0 {
				a = uint32(exp[int(log[a])+steps[i]])
			}
			acc[i] = a ^ uint32(rv)
		}
	}
	expandOdd(syn, t, log, exp)
	return syn
}

// expandOdd turns the compact odd syndromes in syn[:t] (syn[i] holding
// S_{2i+1}) into the full vector S_1..S_2t in syn[:2t]: it fans them out
// to their S_j slots (descending, so no compact entry is clobbered
// before it is read), then derives every even syndrome by squaring,
// S_2j = S_j^2 for a binary word. log and exp are the field's tables.
func expandOdd(syn []uint32, t int, log, exp []uint16) {
	for i := t - 1; i >= 0; i-- {
		syn[2*i] = syn[i]
	}
	for j := 2; j <= 2*t; j += 2 {
		sj := syn[j/2-1]
		if sj != 0 {
			l := int(log[sj])
			sj = uint32(exp[l+l]) // 2l <= 2N-2, inside the doubled table
		}
		syn[j-1] = sj
	}
}

// oddSyndromesOf sets acc[i], for every i < len(acc), to the
// contribution of errors at the given codeword bit positions to
// S_{2i+1}: an error at position p sits at polynomial degree
// deg = nbits-1-p and adds alpha^((2i+1)·deg). Syndromes are linear in
// the word, so for positions that are a word's whole error pattern this
// is that word's odd syndrome vector. The exponent is stepped by 2·deg
// between odd syndromes and reduced mod N, so no log lookup is needed.
// Positions must lie in [0, nbits) with nbits <= N; a repeated position
// cancels, as a bit flipped twice does.
func oddSyndromesOf(f *gf.Field, acc []uint32, positions []int, nbits int) {
	N := f.N()
	_, exp := f.Tables()
	for i := range acc {
		acc[i] = 0
	}
	for _, p := range positions {
		deg := nbits - 1 - p
		step := (deg + deg) % N
		e := deg
		for i := range acc {
			acc[i] ^= uint32(exp[e])
			if e += step; e >= N {
				e -= N
			}
		}
	}
}

// SyndromesPoly is the reference implementation evaluating the codeword
// polynomial directly; used to cross-check the table path in tests and
// for non-byte-aligned toy codes.
func SyndromesPoly(f *gf.Field, cw gf.Poly2, t int) []uint32 {
	syn := make([]uint32, 2*t)
	for j := 1; j <= 2*t; j++ {
		syn[j-1] = cw.Eval(f, f.Alpha(j))
	}
	return syn
}

// AllZero reports whether every syndrome vanishes (error-free codeword,
// where the decoder terminates early — paper §4).
func AllZero(syn []uint32) bool {
	for _, s := range syn {
		if s != 0 {
			return false
		}
	}
	return true
}
