package bch

import (
	"encoding/binary"
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
// register word, 272 KB at t = 65 (rw = 17). Codes of up to two words
// (r <= 128, t <= 8 on the page code) add the 256-row fold table of
// their interleaved loops: 2 KB at rw = 1, 4 KB at rw = 2. Both are
// immutable, so one copy serves the encoder, the decoder and every
// drive's Codec at once.
//
// Which loop divides what: rw = 1 runs four interleaved segments, rw = 2
// two, each with the register in locals, for the message and the
// codeword alike; wider registers run one fused pass (chunks).

// divTables is the immutable division state of one code: the slicing
// table, shared by the encoder (which divides msg(x)·x^r) and the
// decoder's remainder-first syndrome path (which divides the received
// word), plus the geometry needed to serialise the register.
type divTables struct {
	r       int    // deg(g) = remainder bits
	rw      int    // remainder register words
	rb      int    // remainder bytes = r/8
	topMask uint64 // the r mod 64 valid bits of the register's top word
	// slice8 is the flat 8·256·rw table (16 KB per register word): row
	// (k·256+v) is v(x)·x^(r+8k) mod g. Its first 256 rows are the
	// byte-at-a-time LFSR's table.
	slice8 []uint64

	// Interleave geometry (rw <= 2 codes only). The register-in-locals
	// loops are latency-bound on their loop-carried dependency, so a body
	// of at least streams·segLen bytes — the message and the codeword
	// alike — ends in that many equal segments divided independently,
	// whose remainders recombine through the fold table:
	// rem(A·x^m + B) = rem(A)·x^m + rem(B) (mod g), and the same with both
	// sides premultiplied by x^r. Wider registers are bound by table-load
	// throughput instead and gain nothing from it.
	streams int // independent segments: 4 at rw == 1, 2 at rw == 2
	segLen  int // bytes per segment (multiple of 8)
	// fold is the flat 256·rw table (2 KB per register word): row v is
	// v(x)·x^(8·segLen) mod g, applied over a remainder's bytes by fold1
	// and fold2.
	fold []uint64
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

// buildTables tabulates the slicing table, T_k[v] = v(x)·x^(r+8k) mod g
// for k = 0..7, and for rw <= 2 codes the fold table. Segments are sized
// on the message's body (k/8 bytes less the prologue), so the codeword,
// rb bytes longer, splits the same way behind a leading chunk or two.
func buildTables(c *Code) *divTables {
	r := c.GenDegree
	rw := (r + 63) / 64
	tb := &divTables{r: r, rw: rw, rb: r / 8, topMask: ^uint64(0) >> uint(-r&63)}
	// x^r ≡ g(x) + x^r (mod g): the generator without its leading term.
	gLow := make([]uint64, rw)
	c.Gen.Add(gf.NewPoly2FromCoeffs(r)).XorInto(gLow)
	tb.slice8 = tb.byteTable(slices.Clone(gLow), gLow, 8)
	if rw <= 2 {
		streams := 4
		if rw == 2 {
			streams = 2
		}
		if seg := c.K / 64 / streams * 8; seg >= 8*tb.rb {
			w := make([]uint64, rw)
			w[0] = 1
			var zero [8]byte
			for range seg / 8 {
				tb.bytewise(w, zero[:], false) // ends at x^(8·seg) mod g
			}
			tb.streams, tb.segLen, tb.fold = streams, seg, tb.byteTable(w, gLow, 1)
		}
	}
	return tb
}

// byteTable tabulates n byte positions of the multiples of w (degree
// < r, consumed): row (k·256+v) is v(x)·w(x)·x^(8k) mod g, n·256·rw
// words. One walk carries w·x^i mod g through i = 0..8n-1 — the
// single-bit rows — and every other row is the XOR of two earlier ones.
func (tb *divTables) byteTable(w, gLow []uint64, n int) []uint64 {
	rw := tb.rw
	tab := make([]uint64, n*256*rw)
	for k := 0; k < n; k++ {
		rows := tab[k*256*rw:][:256*rw]
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
	return tab
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

// fold1 advances a one-word remainder R across one segment's worth of
// zeros, R·x^(8·segLen) mod g, Horner-style over R's bytes from the top:
// acc ← acc·x^8 + fold[b], the byte acc·x^8 pushes past x^(r-1) reduced
// through the slicing table's first 256 rows as in bytewise. The steps
// are serial, but a division folds at most three times, and a table per
// register byte (rb independent lookups) measured no faster for 6–16
// times the memory.
func (tb *divTables) fold1(R uint64) uint64 {
	t0, f := tb.slice8[:256:256], tb.fold[:256:256]
	sh := uint(tb.r - 8)
	var acc uint64
	for range tb.rb {
		acc = acc<<8&tb.topMask ^ t0[byte(acc>>sh)] ^ f[byte(R>>sh)]
		R <<= 8
	}
	return acc
}

// fold2 is fold1 for a two-word remainder hi:lo.
func (tb *divTables) fold2(lo, hi uint64) (uint64, uint64) {
	t0, f := tb.slice8[:512:512], tb.fold[:512:512]
	sh := uint(tb.r - 72)
	var al, ah uint64
	for range tb.rb {
		t, b := 2*int(byte(ah>>sh)), 2*int(byte(hi>>sh))
		ah, al = (ah<<8|al>>56)&tb.topMask^t0[t+1]^f[b+1], al<<8^t0[t]^f[b]
		hi, lo = hi<<8|lo>>56, lo<<8
	}
	return al, ah
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
// 8-byte chunks for the sliced loops. A body of at least streams·segLen
// bytes ends in the interleaved segments; whatever chunks precede them
// run single-stream first.
func (tb *divTables) divide(reg []uint64, data []byte, premul bool) {
	clear(reg)
	head := len(data) % 8
	tb.bytewise(reg, data[:head], premul)
	body := data[head:]
	split := len(body) - tb.streams*tb.segLen
	if tb.fold == nil || split < 0 {
		tb.chunks(reg, body, premul)
		return
	}
	tb.chunks(reg, body[:split], premul)
	if tb.rw == 1 {
		tb.chunks4(reg, body[split:], premul)
	} else {
		tb.chunks2(reg, body[split:], premul)
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

// inject says how a 64-bit chunk b enters the narrow (rw <= 2) loops:
// b>>in joins the overflow H and b&low stays below x^r. Plain, the chunk
// sits at degree 0, so only its bits past x^r overflow (none when
// r >= 64; Go shifts >= width yield 0); premultiplied it sits at degree
// r and overflows whole.
func (tb *divTables) inject(premul bool) (in uint, low uint64) {
	switch {
	case premul:
		return 0, 0
	case tb.rw == 1:
		return uint(tb.r), tb.topMask
	}
	return 64, ^uint64(0)
}

// sum4w is Σ T_k[byte_k(h)] over four consecutive slicing tables of a
// two-word code, one word of each row: tab starts at that word of the
// first table's row 0 (see views2), and rows are two words apart. Eight
// lookups in one function exceed the compiler's inlining budget; four
// inline, and against the array type their bounds checks vanish.
func sum4w(tab *[2047]uint64, h uint32) uint64 {
	return tab[2*uint(uint8(h))] ^ tab[2*(256+uint(uint8(h>>8)))] ^
		tab[2*(512+uint(uint8(h>>16)))] ^ tab[2*(768+uint(uint8(h>>24)))]
}

// views2 cuts a two-word slicing table into the four sum4w views: the
// low words of tables 0..3 and 4..7, then the high words of the same.
func (tb *divTables) views2() (la, lb, ha, hb *[2047]uint64) {
	s := tb.slice8
	return (*[2047]uint64)(s), (*[2047]uint64)(s[2048:]), (*[2047]uint64)(s[1:]), (*[2047]uint64)(s[2049:])
}

// chunks4 is the rw == 1 sliced loop with the loop-carried dependency
// broken four ways: data (4·segLen bytes) splits into four segments
// divided independently (their recurrences share no state, so the four
// table-fold chains overlap in flight), and the partial remainders
// recombine with three fold1 applications. reg carries in the
// remainder of everything before data.
func (tb *divTables) chunks4(reg []uint64, data []byte, premul bool) {
	// The hot loops index tab with k·256 + byte, k = 0..7: reslicing to
	// exactly 2048 entries lets the compiler drop every bounds check.
	tab := tb.slice8[:2048:2048]
	in, low := tb.inject(premul)
	sh := 64 - uint(tb.r)
	seg := tb.segLen
	d0 := data[:seg:seg]
	d1 := data[seg : 2*seg : 2*seg]
	d2 := data[2*seg : 3*seg : 3*seg]
	d3 := data[3*seg:]
	g0 := reg[0]
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
		h0 := g0<<sh ^ b0>>in
		h1 := g1<<sh ^ b1>>in
		h2 := g2<<sh ^ b2>>in
		h3 := g3<<sh ^ b3>>in
		g0 = (b0 & low) ^
			tab[byte(h0)] ^
			tab[1*256+int(byte(h0>>8))] ^
			tab[2*256+int(byte(h0>>16))] ^
			tab[3*256+int(byte(h0>>24))] ^
			tab[4*256+int(byte(h0>>32))] ^
			tab[5*256+int(byte(h0>>40))] ^
			tab[6*256+int(byte(h0>>48))] ^
			tab[7*256+int(h0>>56&0xff)]
		g1 = (b1 & low) ^
			tab[byte(h1)] ^
			tab[1*256+int(byte(h1>>8))] ^
			tab[2*256+int(byte(h1>>16))] ^
			tab[3*256+int(byte(h1>>24))] ^
			tab[4*256+int(byte(h1>>32))] ^
			tab[5*256+int(byte(h1>>40))] ^
			tab[6*256+int(byte(h1>>48))] ^
			tab[7*256+int(h1>>56&0xff)]
		g2 = (b2 & low) ^
			tab[byte(h2)] ^
			tab[1*256+int(byte(h2>>8))] ^
			tab[2*256+int(byte(h2>>16))] ^
			tab[3*256+int(byte(h2>>24))] ^
			tab[4*256+int(byte(h2>>32))] ^
			tab[5*256+int(byte(h2>>40))] ^
			tab[6*256+int(byte(h2>>48))] ^
			tab[7*256+int(h2>>56&0xff)]
		g3 = (b3 & low) ^
			tab[byte(h3)] ^
			tab[1*256+int(byte(h3>>8))] ^
			tab[2*256+int(byte(h3>>16))] ^
			tab[3*256+int(byte(h3>>24))] ^
			tab[4*256+int(byte(h3>>32))] ^
			tab[5*256+int(byte(h3>>40))] ^
			tab[6*256+int(byte(h3>>48))] ^
			tab[7*256+int(h3>>56&0xff)]
	}
	reg[0] = tb.fold1(tb.fold1(tb.fold1(g0)^g1)^g2) ^ g3
}

// chunks2 is the rw == 2 sliced loop, its register hi:lo in locals,
// broken two ways: data (2·segLen bytes) splits into two segments
// divided independently and recombined with one fold2. Two streams
// already make the loop bound by table-load throughput (sixteen loads a
// step each); four measured no faster.
func (tb *divTables) chunks2(reg []uint64, data []byte, premul bool) {
	la, lb, ha, hb := tb.views2()
	in, low := tb.inject(premul)
	s, m, seg := uint(tb.r-64), tb.topMask, tb.segLen
	d0, d1 := data[:seg:seg], data[seg:]
	lo0, hi0 := reg[0], reg[1]
	var lo1, hi1 uint64
	for len(d0) >= 8 && len(d1) >= 8 {
		b0, b1 := binary.BigEndian.Uint64(d0), binary.BigEndian.Uint64(d1)
		d0, d1 = d0[8:], d1[8:]
		h0 := hi0<<(64-s) | lo0>>s ^ b0>>in
		h1 := hi1<<(64-s) | lo1>>s ^ b1>>in
		hi0, lo0 = lo0&m^sum4w(ha, uint32(h0))^sum4w(hb, uint32(h0>>32)),
			b0&low^sum4w(la, uint32(h0))^sum4w(lb, uint32(h0>>32))
		hi1, lo1 = lo1&m^sum4w(ha, uint32(h1))^sum4w(hb, uint32(h1>>32)),
			b1&low^sum4w(la, uint32(h1))^sum4w(lb, uint32(h1>>32))
	}
	lo, hi := tb.fold2(lo0, hi0)
	reg[0], reg[1] = lo^lo1, hi^hi1
}

// chunks advances the register eight bytes per step: reg·x^64 + B
// splits at degree r into a 64-bit overflow H (degrees r..r+63) and an
// r-bit low part L, and H folds back in as Σ_k T_k[byte_k(H)], so
// reg' = L ^ Σ_k T_k[byte_k(H)]. Premultiplied, the chunk enters at
// degree r: it joins H and L's bottom word is zero. len(data) must be a
// multiple of 8.
func (tb *divTables) chunks(reg []uint64, data []byte, premul bool) {
	r := uint(tb.r)
	in, low := tb.inject(premul)
	switch tb.rw {
	case 1:
		// r <= 64: the whole register is one word, kept in a local, and
		// the eight lookups are independent loads the CPU can overlap.
		tab := tb.slice8[:2048:2048]
		sh := 64 - r
		g := reg[0]
		for ; len(data) >= 8; data = data[8:] {
			b := binary.BigEndian.Uint64(data)
			h := g<<sh ^ b>>in
			g = (b & low) ^
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
	case 2:
		// 64 < r <= 128: the register is hi:lo in locals, s = r-64 bits
		// of hi valid; H is its top 64 bits and L the chunk over lo's
		// bottom s, so no store→load round trip and no row re-slicing.
		la, lb, ha, hb := tb.views2()
		s := r - 64
		lo, hi := reg[0], reg[1]
		for ; len(data) >= 8; data = data[8:] {
			b := binary.BigEndian.Uint64(data)
			h := hi<<(64-s) | lo>>s ^ b>>in
			hi, lo = lo&tb.topMask^sum4w(ha, uint32(h))^sum4w(hb, uint32(h>>32)),
				b&low^sum4w(la, uint32(h))^sum4w(lb, uint32(h>>32))
		}
		reg[0], reg[1] = lo, hi
		return
	}
	// Generic width (r > 128): select the eight rows once, then one pass
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
