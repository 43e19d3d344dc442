package bch

import (
	"errors"
	"fmt"

	"xlnand/internal/freelist"
	"xlnand/internal/gf"
	"xlnand/internal/reference"
)

// ErrUncorrectable is returned when the decoder detects more errors than
// the configured correction capability can repair. The codeword is left
// unmodified in that case.
var ErrUncorrectable = errors.New("bch: uncorrectable error pattern")

// Decoder runs the three-stage BCH decoding flow of the paper's Fig. 2:
// syndrome computation, Berlekamp-Massey, error location. One Decoder is
// bound to one code (one t); the adaptive Codec multiplexes between them.
// The stages' results are the modelled datapath's; how the host computes
// them is not (the third stage factors the locator, see locatorRoots,
// where the hardware of HWConfig.ChienCycles scans positions). A sensed
// decode of at most t known flips runs none of the three stages on the
// host (see DecodeSensed); the modelled datapath still runs all three.
//
// Decoder is safe for concurrent use: all mutable per-decode state lives
// in scratch contexts taken from a free list for the length of one
// decode, so concurrent dies sharing one codec share nothing else and
// never allocate in steady state. (A free list, not a sync.Pool: the
// zero-allocation tests must not depend on when the collector runs.)
type Decoder struct {
	code *Code
	syn  *SyndromeCalc
	div  *divTables // remainder-first syndrome engine, shared; nil for toy geometries
	pool freelist.List[decodeScratch]
}

// decodeScratch is the reusable working set of one in-flight Decode: the
// syndrome vector, the Berlekamp-Massey polynomial buffers, the root
// finder's working set and the found-position list. One scratch serves
// decodes of any capability up to the decoder's t.
type decodeScratch struct {
	syn   []uint32
	delta []uint32 // re-check accumulator, one entry per odd syndrome
	reg   []uint64 // polynomial-division register (remainder-first path)
	rem   []byte   // serialised remainder, r/8 bytes
	bm    bmScratch
	roots []uint16 // locatorRoots working set, sized for a degree-t locator
	pos   []int
}

// NewDecoder creates a decoder for the code, sharing the given syndrome
// calculator (pass nil to create a private one). The calculator's lookup
// tables for the code's capability are built eagerly here, so the first
// Decode on a latency-sensitive path does table lookups only.
func NewDecoder(c *Code, syn *SyndromeCalc) *Decoder {
	if syn == nil {
		syn = NewSyndromeCalc(c.Field)
	}
	syn.Prepare(c.T)
	d := &Decoder{code: c, syn: syn, div: tablesFor(c)}
	t := c.T
	d.pool.New = func() *decodeScratch {
		sc := &decodeScratch{
			syn:   make([]uint32, 2*t),
			delta: make([]uint32, t),
			roots: make([]uint16, rootScratchLen(c.Field.M(), t)),
			pos:   make([]int, 0, t),
		}
		if d.div != nil {
			sc.reg = make([]uint64, d.div.rw)
			sc.rem = make([]byte, d.div.rb)
		}
		sc.bm.grow(2 * t)
		return sc
	}
	// One scratch up front: a sensed decode with at most t flips takes
	// none, so the first decode that does may be a rare read past t on
	// an otherwise steady-state path.
	d.pool.Put(d.pool.New())
	return d
}

// Decode corrects the codeword (msg ++ parity bytes, as produced by
// Encoder.EncodeCodeword) in place. It returns the number of bit errors
// corrected, or ErrUncorrectable (codeword untouched) when the pattern
// exceeds the code's capability in a detectable way.
//
// The steady-state hot path allocates nothing and reads the page once:
// the sliced division reduces it to its r-bit remainder, all odd
// syndromes of that remainder advance together in one fused pass, and
// the post-correction verification updates the syndromes algebraically
// from the flipped positions (O(errors·t)) instead of re-reading the
// page. DecodeSensed skips the page read altogether when the error
// positions are known, and every stage when they number at most t.
func (d *Decoder) Decode(codeword []byte) (int, error) {
	nbits, err := d.checkLen(codeword)
	if err != nil {
		return 0, err
	}
	sc := d.pool.Get()
	defer d.pool.Put(sc)
	t := d.code.T

	// Remainder-first syndromes: divide the page by g(x) with the sliced
	// LFSR, then evaluate S_1..S_2t on the r-bit remainder only —
	// bit-identical to the direct walk (see remainder.go), but the
	// expensive per-syndrome evaluation no longer touches the full page.
	// Short codewords (remainder comparable to the word itself) keep the
	// direct path.
	var syn []uint32
	if d.div != nil && len(codeword) > 2*d.div.rb {
		d.div.remainderInto(sc.rem, sc.reg, codeword)
		syn = d.syn.SyndromesInto(sc.syn, sc.rem, t)
	} else {
		syn = d.syn.SyndromesInto(sc.syn, codeword, t)
	}
	return d.correct(codeword, nbits, syn, sc)
}

// DecodeSensed is Decode for a word whose error pattern is known: the
// codeword this code encoded with exactly the bits at flips (distinct
// codeword bit positions, numbered as in Decode) inverted. The count,
// the error and the bytes left in codeword are exactly Decode's on the
// same buffer, by one of two routes:
//
//   - At most t flips: the code's design distance is at least 2t+1, so
//     a pattern of weight at most t is the only one within t of the
//     received word. Decode would find exactly these positions and its
//     re-check would pass, so the flips are undone in place and their
//     count returned, with no syndrome, Berlekamp-Massey or root finding.
//   - More than t flips: syndromes are linear, and a codeword's are
//     zero, so the received word's odd syndromes are the flips' own
//     contributions (O(len(flips)·t), the re-check's algebra) and the
//     even ones follow by squaring; the page is never divided. The rest
//     — Berlekamp-Massey, root finding, in-place correction, the
//     re-check and its rollback — is Decode's. Every miscorrection and
//     detected failure lives on this route.
//
// A word that is not such a codeword gets no such guarantee: the flips
// are trusted, not checked against the bytes. In the reference build
// (reference.On) DecodeSensed checks its arguments and then runs Decode.
func (d *Decoder) DecodeSensed(codeword []byte, flips []int) (int, error) {
	nbits, err := d.checkLen(codeword)
	if err != nil {
		return 0, err
	}
	for _, p := range flips {
		if p < 0 || p >= nbits {
			return 0, fmt.Errorf("bch: flip position %d outside codeword of %d bits", p, nbits)
		}
	}
	if reference.On {
		return d.Decode(codeword)
	}
	if len(flips) <= d.code.T {
		for _, p := range flips {
			codeword[p/8] ^= 1 << uint(7-p%8)
		}
		return len(flips), nil
	}
	sc := d.pool.Get()
	defer d.pool.Put(sc)
	t := d.code.T
	syn := sc.syn[:2*t]
	oddSyndromesOf(d.code.Field, syn[:t], flips, nbits)
	log, exp := d.code.Field.Tables()
	expandOdd(syn, t, log, exp)
	return d.correct(codeword, nbits, syn, sc)
}

// checkLen validates the codeword geometry and returns its bit length.
func (d *Decoder) checkLen(codeword []byte) (int, error) {
	nbits := d.code.CodewordBits()
	if nbits%8 != 0 {
		return 0, fmt.Errorf("bch: codeword bits %d not byte aligned; use DecodePoly", nbits)
	}
	if len(codeword) != nbits/8 {
		return 0, fmt.Errorf("bch: codeword is %d bytes, want %d", len(codeword), nbits/8)
	}
	return nbits, nil
}

// correct is the decode tail shared by Decode and DecodeSensed: given
// the received word's syndromes S_1..S_2t, it locates the errors
// (Berlekamp-Massey, then the locator's roots), corrects them in place
// and re-checks the result, rolling the codeword back on failure.
func (d *Decoder) correct(codeword []byte, nbits int, syn []uint32, sc *decodeScratch) (int, error) {
	if AllZero(syn) {
		return 0, nil
	}
	f := d.code.Field
	t := d.code.T
	lambda, L := berlekampMasseyInto(f, syn, &sc.bm)
	if L > t || len(lambda)-1 != L {
		return 0, ErrUncorrectable
	}
	positions, ok := locatorRoots(f, lambda, nbits, sc.pos[:0], sc.roots)
	if !ok {
		return 0, ErrUncorrectable
	}
	for _, p := range positions {
		codeword[p/8] ^= 1 << uint(7-p%8)
	}
	// Defensive re-check: a miscorrection beyond capability can leave
	// nonzero syndromes; verify and roll back rather than hand corrupted
	// data upward. Syndromes are linear in the codeword, so instead of
	// re-walking the page the flips are applied to the syndromes directly:
	// an error at polynomial degree p contributes alpha^(j·p) to S_j. Only
	// odd syndromes need checking — for a binary word S_2j = S_j^2, so
	// every even syndrome vanishes whenever all odd ones do.
	if !d.recheckOK(syn, positions, nbits, sc.delta) {
		for _, p := range positions {
			codeword[p/8] ^= 1 << uint(7-p%8)
		}
		return 0, ErrUncorrectable
	}
	return len(positions), nil
}

// recheckOK reports whether the odd syndromes, updated algebraically with
// the corrected bit positions, all vanish: the corrections' contribution
// to each odd S_j is accumulated into delta (scratch, >= t entries), and
// the correction is sound iff delta_j == S_j for every odd j.
func (d *Decoder) recheckOK(syn []uint32, positions []int, nbits int, delta []uint32) bool {
	t := d.code.T
	dl := delta[:t] // dl[i] accumulates the flips' contribution to S_{2i+1}
	oddSyndromesOf(d.code.Field, dl, positions, nbits)
	for i := 0; i < t; i++ {
		if syn[2*i] != dl[i] {
			return false
		}
	}
	return true
}

// DecodePoly is the polynomial-level reference decoder used for
// non-byte-aligned toy codes and cross-validation. It returns the
// corrected codeword polynomial and the number of errors corrected.
func DecodePoly(c *Code, cw gf.Poly2) (gf.Poly2, int, error) {
	nbits := c.CodewordBits()
	syn := SyndromesPoly(c.Field, cw, c.T)
	if AllZero(syn) {
		return cw, 0, nil
	}
	lambda, L := BerlekampMassey(c.Field, syn)
	if L > c.T || len(lambda)-1 != L {
		return cw, 0, ErrUncorrectable
	}
	positions, ok := ChienSearch(c.Field, lambda, nbits)
	if !ok {
		return cw, 0, ErrUncorrectable
	}
	fix := gf.Poly2{}
	for _, p := range positions {
		fix = fix.Add(gf.NewPoly2FromCoeffs(nbits - 1 - p))
	}
	corrected := cw.Add(fix)
	if !AllZero(SyndromesPoly(c.Field, corrected, c.T)) {
		return cw, 0, ErrUncorrectable
	}
	return corrected, len(positions), nil
}
