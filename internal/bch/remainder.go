package bch

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"xlnand/internal/gf"
	"xlnand/internal/weakmap"
)

// Remainder-first syndrome computation.
//
// The received word c(x) splits as q(x)·g(x) + rem(x) with deg(rem) < r,
// and every syndrome root alpha^j (j = 1..2t) is a root of g, so
// S_j = c(alpha^j) = rem(alpha^j): the syndromes of the r-bit remainder
// are exactly the syndromes of the whole codeword. Dividing by g is far
// cheaper than evaluating 2t syndromes across the page — especially with
// the slicing-by-8 tables below, which consume the page 64 bits at a
// time with eight independent table lookups per step (the classic CRC
// slicing technique lifted to an arbitrary-degree GF(2) modulus). After
// division, the fused per-syndrome evaluation of SyndromesInto only has
// to walk r/8 remainder bytes instead of the full page. The result is
// bit-identical to the direct path: both compute the same field
// elements exactly.
//
// The slicing table is built for every byte-aligned code: 16 KB per
// register word, 272 KB at t = 65 (rw = 17). It is immutable, so one
// copy serves the encoder, the decoder and every drive's Codec at once.

// divTables is the immutable division state of one code: the slicing
// table, shared by the encoder (which divides msg(x)·x^r) and the
// decoder's remainder-first syndrome path (which divides the received
// word), plus the geometry needed to serialise the register.
type divTables struct {
	r       int    // deg(g) = remainder bits
	rw      int    // remainder register words
	rb      int    // remainder bytes = r/8
	topMask uint64 // the r mod 64 valid bits of the register's top word
	// slice8 is the flat 8·256·rw table: row (k·256+v) is
	// v(x)·x^(r+8k) mod g. Its first 256 rows are the byte-at-a-time
	// LFSR's table.
	slice8 []uint64

	// Four-way interleave geometry (rw == 1 codes only). The sliced loop
	// is latency-bound on its loop-carried register dependency, so for
	// the code's full-length codeword — the only length the decoder ever
	// divides — the body splits into four independently-divided segments
	// whose remainders recombine through the shiftL fold tables:
	// rem(A·x^m + B) = rem(A)·x^m + rem(B) (mod g). Wider registers are
	// bound by table-load throughput instead and gain nothing from it.
	fourLen int      // post-prologue byte count the 4-way loop is built for
	segLen  int      // bytes per interleaved segment (multiple of 8)
	shiftL  []uint64 // flat rb·256: row (j·256+v) = v(x)·x^(8·(segLen+j)) mod g
}

// tableReg finds the live table set of a code geometry. The entries are
// weak: a table set lives exactly as long as some Encoder or Decoder
// (hence some Codec) holds it, so concurrently live drives share one
// copy while a process that walks every capability in turn — the
// lifetime catalog — does not accumulate all 63.
var tableReg weakmap.Map[tableKey, divTables]

// tableKey names a code geometry; fields are process-wide (gf.NewField),
// so the pointer identifies (m, primitive polynomial).
type tableKey struct {
	f    *gf.Field
	k, t int
}

// tablesFor returns the division tables for the code, building them if
// no live holder has any, or nil when the code's parity is not
// byte-aligned (toy codes use the polynomial API and the direct
// syndrome walk).
func tablesFor(c *Code) *divTables {
	if c.GenDegree < 8 || c.GenDegree%8 != 0 {
		return nil
	}
	return tableReg.Get(tableKey{c.Field, c.K, c.T}, func() *divTables { return buildTables(c) })
}

// buildTables tabulates T_k[v] = v(x)·x^(r+8k) mod g for k = 0..7. One
// walk carries w = x^(r+i) mod g through i = 0..63 — the 64 single-bit
// rows — and every other row is the XOR of two earlier ones.
func buildTables(c *Code) *divTables {
	r := c.GenDegree
	rw := (r + 63) / 64
	tb := &divTables{r: r, rw: rw, rb: r / 8, topMask: ^uint64(0) >> uint(-r&63)}
	tb.slice8 = make([]uint64, 8*256*rw)
	// x^r ≡ g(x) + x^r (mod g): the generator without its leading term.
	gLow := make([]uint64, rw)
	c.Gen.Add(gf.NewPoly2FromCoeffs(r)).XorInto(gLow)
	w := slices.Clone(gLow)
	for k := 0; k < 8; k++ {
		rows := tb.slice8[k*256*rw:][:256*rw]
		for v := 1; v < 256; v++ {
			row := rows[v*rw:][:rw]
			lo := v & -v
			if v == lo {
				copy(row, w)
				tb.mulX(w, gLow)
				continue
			}
			a, b := rows[(v^lo)*rw:][:rw], rows[lo*rw:][:rw]
			for i := range row {
				row[i] = a[i] ^ b[i]
			}
		}
	}
	if rw == 1 {
		expD := (c.K + r) / 8
		body := expD - expD%8
		if seg := (body / 8 / 4) * 8; seg >= 8*tb.rb {
			tb.fourLen = body
			tb.segLen = seg
			tb.shiftL = buildShiftL(tb, seg)
		}
	}
	return tb
}

// mulX advances w (degree < r) to w·x mod g, with gLow = x^r mod g.
func (tb *divTables) mulX(w, gLow []uint64) {
	last := tb.rw - 1
	top := w[last] >> uint((tb.r-1)%64) & 1
	var carry uint64
	for i, v := range w {
		w[i], carry = v<<1|carry, v>>63
	}
	w[last] &= tb.topMask
	if top != 0 {
		for i, g := range gLow {
			w[i] ^= g
		}
	}
}

// buildShiftL tabulates S_j[v] = v(x)·x^(8·(segBytes+j)) mod g for
// j = 0..rb-1 — the per-byte fold of a remainder register across one
// segment's length. Only built for rw == 1 (r <= 64) codes. One walk
// carries x^(8·segBytes) up from x^r; each row then derives from an
// 8-element bit basis by subset XOR, so the build is O(segBytes + rb·256)
// rather than O(256·segBytes).
func buildShiftL(tb *divTables, segBytes int) []uint64 {
	r, rb := tb.r, tb.rb
	// With rw == 1 the slicing table's row v is the single word
	// slice8[v], and row 1 is x^r mod g.
	gLow := tb.slice8[1]
	shift8 := func(v uint64) uint64 {
		top := byte(v >> uint(r-8))
		return (v << 8 & tb.topMask) ^ tb.slice8[top]
	}
	shift1 := func(v uint64) uint64 {
		top := v >> uint(r-1)
		v = v << 1 & tb.topMask
		if top != 0 {
			v ^= gLow
		}
		return v
	}
	w := gLow // x^r mod g
	for k := 0; k < segBytes-rb; k++ {
		w = shift8(w) // now x^(8·segBytes) mod g
	}
	tab := make([]uint64, rb*256)
	var basis [8]uint64
	for j := 0; j < rb; j++ {
		basis[0] = w
		for u := 1; u < 8; u++ {
			basis[u] = shift1(basis[u-1]) // x^(8·(segBytes+j)+u) mod g
		}
		row := tab[j*256 : (j+1)*256]
		for v := 1; v < 256; v++ {
			// Subset-sum: drop v's lowest set bit, XOR that bit's basis.
			row[v] = row[v&(v-1)] ^ basis[bits.TrailingZeros8(uint8(v))]
		}
		w = shift8(w)
	}
	return tab
}

// foldSeg advances a remainder register across one segment's worth of
// zeros: R·x^(8·segLen) mod g, one table row per register byte.
func (tb *divTables) foldSeg(R uint64) uint64 {
	st := tb.shiftL
	var v uint64
	for j := 0; j < tb.rb; j++ {
		v ^= st[j*256+int(byte(R>>uint(8*j)))]
	}
	return v
}

// remainderInto computes rem(x) = codeword(x) mod g(x) into rem
// (MSB-first, coefficient of x^(r-1) in the MSB of rem[0] — the same
// layout SyndromesInto expects), using reg (len rw) as the division
// register.
func (tb *divTables) remainderInto(rem []byte, reg []uint64, codeword []byte) {
	tb.divide(reg, codeword, false)
	tb.serialise(rem, reg)
}

// divide leaves data(x) mod g in reg (len rw) — or, premultiplied,
// data(x)·x^r mod g, the systematic parity of data: the same LFSR with
// the incoming bits entering at degree r instead of degree 0. A leading
// byte-wise prologue of at most seven bytes aligns the rest to whole
// 8-byte chunks for the sliced loop.
func (tb *divTables) divide(reg []uint64, data []byte, premul bool) {
	clear(reg)
	head := len(data) % 8
	tb.bytewise(reg, data[:head], premul)
	if body := data[head:]; !premul && tb.shiftL != nil && len(body) == tb.fourLen {
		tb.chunks4(reg, body)
	} else {
		tb.chunks(reg, body, premul)
	}
}

// serialise writes the register MSB-first: out byte i carries
// coefficients r-8i-1 .. r-8i-8, the spare-area parity layout. r is a
// multiple of 8, so no byte straddles two words.
func (tb *divTables) serialise(out []byte, reg []uint64) {
	for i := range out {
		pos := tb.r - 8*(i+1)
		out[i] = byte(reg[pos/64] >> uint(pos%64))
	}
}

// bytewise is the one-byte-per-step division, reg·x^8 + b (mod g): the
// byte that overflows past x^(r-1) is extracted, the register shifted, b
// injected at the bottom and the overflow folded back in via the table's
// row top(x)·x^r mod g. Premultiplied, b joins the overflow byte
// instead. It runs the prologue of divide and is the oracle the sliced
// loops are tested against.
func (tb *divTables) bytewise(reg []uint64, data []byte, premul bool) {
	rw, last := tb.rw, tb.rw-1
	topPos := tb.r - 8
	tw, toff := topPos/64, uint(topPos%64)
	for _, b := range data {
		top, in := byte(reg[tw]>>toff), uint64(b)
		if premul {
			top, in = top^b, 0
		}
		row := tb.slice8[int(top)*rw:][:rw]
		for i := last; i > 0; i-- {
			reg[i] = (reg[i]<<8 | reg[i-1]>>56) ^ row[i]
		}
		reg[0] = reg[0]<<8 ^ row[0] ^ in
		reg[last] &= tb.topMask
	}
}

// chunks4 is the rw == 1 sliced loop with the loop-carried dependency
// broken four ways: the body splits into four segments divided
// independently (their recurrences share no state, so the four table
// fold chains overlap in flight), and the partial remainders recombine
// with three foldSeg applications — polynomial concatenation is linear,
// rem(A·x^m + B) = rem(A)·x^m + rem(B) (mod g). len(data) must equal
// tb.fourLen; any extra leading chunks beyond the four equal segments
// run single-stream first.
func (tb *divTables) chunks4(reg []uint64, data []byte) {
	// The hot loops index tab with k·256 + byte, k = 0..7: resłicing to
	// exactly 2048 entries lets the compiler drop every bounds check.
	tab := tb.slice8[:2048:2048]
	r := uint(tb.r)
	sh := 64 - r // Go shifts >= width yield 0, so r == 64 needs no branch
	lmask := tb.topMask
	seg := tb.segLen
	g0 := reg[0]
	p := 0
	for extra := len(data) - 4*seg; p < extra; p += 8 {
		b := binary.BigEndian.Uint64(data[p:])
		h := g0<<sh | b>>r
		g0 = (b & lmask) ^
			tab[byte(h)] ^
			tab[1*256+int(byte(h>>8))] ^
			tab[2*256+int(byte(h>>16))] ^
			tab[3*256+int(byte(h>>24))] ^
			tab[4*256+int(byte(h>>32))] ^
			tab[5*256+int(byte(h>>40))] ^
			tab[6*256+int(byte(h>>48))] ^
			tab[7*256+int(h>>56&0xff)]
	}
	d0 := data[p : p+seg : p+seg]
	d1 := data[p+seg : p+2*seg : p+2*seg]
	d2 := data[p+2*seg : p+3*seg : p+3*seg]
	d3 := data[p+3*seg:]
	var g1, g2, g3 uint64
	// Advancing the slices themselves (rather than indexing) keeps the
	// loads free of bounds checks: the length guards cover each Uint64
	// and each re-slice. The four lengths are equal by construction; the
	// redundant compares cost far less than the checks they eliminate.
	for len(d0) >= 8 && len(d1) >= 8 && len(d2) >= 8 && len(d3) >= 8 {
		b0 := binary.BigEndian.Uint64(d0)
		b1 := binary.BigEndian.Uint64(d1)
		b2 := binary.BigEndian.Uint64(d2)
		b3 := binary.BigEndian.Uint64(d3)
		d0, d1, d2, d3 = d0[8:], d1[8:], d2[8:], d3[8:]
		h0 := g0<<sh | b0>>r
		h1 := g1<<sh | b1>>r
		h2 := g2<<sh | b2>>r
		h3 := g3<<sh | b3>>r
		g0 = (b0 & lmask) ^
			tab[byte(h0)] ^
			tab[1*256+int(byte(h0>>8))] ^
			tab[2*256+int(byte(h0>>16))] ^
			tab[3*256+int(byte(h0>>24))] ^
			tab[4*256+int(byte(h0>>32))] ^
			tab[5*256+int(byte(h0>>40))] ^
			tab[6*256+int(byte(h0>>48))] ^
			tab[7*256+int(h0>>56&0xff)]
		g1 = (b1 & lmask) ^
			tab[byte(h1)] ^
			tab[1*256+int(byte(h1>>8))] ^
			tab[2*256+int(byte(h1>>16))] ^
			tab[3*256+int(byte(h1>>24))] ^
			tab[4*256+int(byte(h1>>32))] ^
			tab[5*256+int(byte(h1>>40))] ^
			tab[6*256+int(byte(h1>>48))] ^
			tab[7*256+int(h1>>56&0xff)]
		g2 = (b2 & lmask) ^
			tab[byte(h2)] ^
			tab[1*256+int(byte(h2>>8))] ^
			tab[2*256+int(byte(h2>>16))] ^
			tab[3*256+int(byte(h2>>24))] ^
			tab[4*256+int(byte(h2>>32))] ^
			tab[5*256+int(byte(h2>>40))] ^
			tab[6*256+int(byte(h2>>48))] ^
			tab[7*256+int(h2>>56&0xff)]
		g3 = (b3 & lmask) ^
			tab[byte(h3)] ^
			tab[1*256+int(byte(h3>>8))] ^
			tab[2*256+int(byte(h3>>16))] ^
			tab[3*256+int(byte(h3>>24))] ^
			tab[4*256+int(byte(h3>>32))] ^
			tab[5*256+int(byte(h3>>40))] ^
			tab[6*256+int(byte(h3>>48))] ^
			tab[7*256+int(h3>>56&0xff)]
	}
	R := tb.foldSeg(g0) ^ g1
	R = tb.foldSeg(R) ^ g2
	R = tb.foldSeg(R) ^ g3
	reg[0] = R
}

// chunks advances the register eight bytes per step: reg·x^64 + B
// splits at degree r into a 64-bit overflow H (degrees r..r+63) and an
// r-bit low part L, and H folds back in as Σ_k T_k[byte_k(H)], so
// reg' = L ^ Σ_k T_k[byte_k(H)]. Premultiplied, the chunk enters at
// degree r: it joins H and L's bottom word is zero. len(data) must be a
// multiple of 8.
func (tb *divTables) chunks(reg []uint64, data []byte, premul bool) {
	r := uint(tb.r)
	if tb.rw == 1 {
		// r <= 64: the whole register is one word, kept in a local, and
		// the eight lookups are independent loads the CPU can overlap.
		tab := tb.slice8[:2048:2048]
		sh := 64 - r // Go shifts >= width yield 0, so r == 64 needs no branch
		g, lmask := reg[0], tb.topMask
		for ; len(data) >= 8; data = data[8:] {
			b := binary.BigEndian.Uint64(data)
			h, low := g<<sh|b>>r, b&lmask
			if premul {
				h, low = g<<sh^b, 0
			}
			g = low ^
				tab[byte(h)] ^
				tab[1*256+int(byte(h>>8))] ^
				tab[2*256+int(byte(h>>16))] ^
				tab[3*256+int(byte(h>>24))] ^
				tab[4*256+int(byte(h>>32))] ^
				tab[5*256+int(byte(h>>40))] ^
				tab[6*256+int(byte(h>>48))] ^
				tab[7*256+int(h>>56&0xff)]
		}
		reg[0] = g
		return
	}
	// Generic width (r > 64): select the eight rows once, then one pass
	// over the register XORs them in with the 64-bit word shift folded
	// into the same pass (carry is the word moving up from below). At
	// ~1.2 cycles per table load the pass is throughput-bound, which is
	// why there is no interleaved variant at this width.
	tab, rw, topMask := tb.slice8, tb.rw, tb.topMask
	reg = reg[:rw]
	last, s := rw-1, r%64
	for ; len(data) >= 8; data = data[8:] {
		carry := binary.BigEndian.Uint64(data)
		h := reg[last]
		if s != 0 {
			h = h<<(64-s) | reg[last-1]>>s
		}
		if premul {
			h, carry = h^carry, 0
		}
		r0 := tab[int(byte(h))*rw:][:rw]
		r1 := tab[(1<<8|int(byte(h>>8)))*rw:][:rw]
		r2 := tab[(2<<8|int(byte(h>>16)))*rw:][:rw]
		r3 := tab[(3<<8|int(byte(h>>24)))*rw:][:rw]
		r4 := tab[(4<<8|int(byte(h>>32)))*rw:][:rw]
		r5 := tab[(5<<8|int(byte(h>>40)))*rw:][:rw]
		r6 := tab[(6<<8|int(byte(h>>48)))*rw:][:rw]
		r7 := tab[(7<<8|int(h>>56))*rw:][:rw]
		for j, w := range reg {
			reg[j] = carry ^ r0[j] ^ r1[j] ^ r2[j] ^ r3[j] ^ r4[j] ^ r5[j] ^ r6[j] ^ r7[j]
			carry = w
		}
		reg[last] &= topMask
	}
}
