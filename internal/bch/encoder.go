package bch

import (
	"encoding/binary"
	"fmt"

	"xlnand/internal/freelist"
	"xlnand/internal/gf"
)

// Encoder performs systematic BCH encoding: parity(x) = msg(x)·x^r mod g(x),
// the exact computation the paper's programmable parallel LFSR performs in
// k/p clock cycles. The software implementation processes the message one
// byte at a time through a 256-entry remainder table (the equivalent of a
// p = 8 parallel LFSR network with its XOR taps selected by the ROM of
// characteristic polynomials).
//
// Encoder is safe for concurrent use; the remainder register comes from
// a free list so steady-state encoding does not allocate.
type Encoder struct {
	code *Code
	r    int           // parity bits = deg(g)
	rw   int           // words in the remainder register
	tbl  [256][]uint64 // tbl[v] = v(x)·x^r mod g(x)
	// slice8 is the flat 8·256·rw slicing table (row k·256+v holds
	// v(x)·x^(r+8k) mod g), shared by the sliced encode loop and the
	// decoder's remainder-first syndrome path; nil when rw exceeds
	// slice8MaxRW (see remainder.go).
	slice8 []uint64
	regs   freelist.List[[]uint64] // remainder registers, len rw
}

// NewEncoder builds the remainder table for the code's generator
// polynomial. Encoding requires r >= 8; the page-scale codes used by the
// flash controller (r = 16·t >= 48) always satisfy this. For smaller toy
// codes use the polynomial API (EncodePoly).
func NewEncoder(c *Code) *Encoder {
	e := &Encoder{code: c, r: c.GenDegree, rw: (c.GenDegree + 63) / 64}
	e.regs.New = func() *[]uint64 { p := make([]uint64, e.rw); return &p }
	// Seed single-bit entries: x^(r+u) mod g for u = 0..7.
	var single [8]gf.Poly2
	p := gf.NewPoly2FromCoeffs(c.GenDegree) // x^r
	for u := 0; u < 8; u++ {
		single[u] = p.Mod(c.Gen)
		p = p.ShiftLeft(1)
	}
	for v := 0; v < 256; v++ {
		w := make([]uint64, e.rw)
		for u := 0; u < 8; u++ {
			// Bit u of the input byte, MSB-first: byte bit 7-u' ...
			// here v's bit position b (0 = LSB) corresponds to x^b.
			if v>>uint(u)&1 == 1 {
				xorInto(w, single[u])
			}
		}
		e.tbl[v] = w
	}
	if e.rw <= slice8MaxRW {
		e.slice8 = buildSlice8(e)
	}
	return e
}

func xorInto(dst []uint64, p gf.Poly2) {
	for i := 0; i <= p.Degree(); i++ {
		if p.Coeff(i) == 1 {
			dst[i/64] ^= 1 << uint(i%64)
		}
	}
}

// Code returns the code this encoder was built for.
func (e *Encoder) Code() *Code { return e.code }

// ParityBytes returns the parity length in bytes. It panics if the parity
// length is not byte-aligned (use EncodePoly for such codes).
func (e *Encoder) ParityBytes() int {
	if e.r%8 != 0 {
		panic("bch: parity length not byte aligned; use EncodePoly")
	}
	return e.r / 8
}

// checkGeometry validates the byte-wise fast-path preconditions.
func (e *Encoder) checkGeometry(msg []byte) error {
	k, r := e.code.K, e.r
	if k%8 != 0 || r%8 != 0 {
		return fmt.Errorf("bch: code geometry k=%d r=%d not byte aligned", k, r)
	}
	if len(msg) != k/8 {
		return fmt.Errorf("bch: message is %d bytes, want %d", len(msg), k/8)
	}
	if r < 8 {
		return fmt.Errorf("bch: r=%d too small for byte-wise encoder", r)
	}
	return nil
}

// Encode computes the parity block for msg, which must be exactly k/8
// bytes (k must be byte-aligned). The returned slice has r/8 bytes with
// the coefficient of x^(r-1) in the MSB of byte 0, matching the spare-area
// layout used by the controller.
func (e *Encoder) Encode(msg []byte) ([]byte, error) {
	if err := e.checkGeometry(msg); err != nil {
		return nil, err
	}
	out := make([]byte, e.r/8)
	e.encodeInto(out, msg)
	return out, nil
}

// EncodeInto computes the parity block for msg into parity, which must be
// exactly r/8 bytes. It is the allocation-free steady-state write path.
func (e *Encoder) EncodeInto(parity, msg []byte) error {
	if err := e.checkGeometry(msg); err != nil {
		return err
	}
	if len(parity) != e.r/8 {
		return fmt.Errorf("bch: parity buffer is %d bytes, want %d", len(parity), e.r/8)
	}
	e.encodeInto(parity, msg)
	return nil
}

// encodeInto runs the byte-wise LFSR over msg and serialises the
// remainder register MSB-first into out (validated, len r/8).
func (e *Encoder) encodeInto(out, msg []byte) {
	regp := e.regs.Get()
	reg := *regp
	for i := range reg {
		reg[i] = 0
	}
	// A byte-wise prologue aligns the bulk of the message to whole
	// 8-byte chunks for the sliced loop (see encodeChunks).
	head := len(msg)
	if e.slice8 != nil {
		head = len(msg) % 8
	}
	for _, b := range msg[:head] {
		top := e.topByte(reg)
		e.shiftLeft8(reg)
		idx := top ^ b
		for i, w := range e.tbl[idx] {
			reg[i] ^= w
		}
	}
	if e.slice8 != nil {
		e.encodeChunks(reg, msg[head:])
	}
	// Serialise the register MSB-first, one output byte at a time:
	// parity byte i carries coefficients r-8i-1 .. r-8i-8.
	r := e.r
	for i := range out {
		pos := r - 8*(i+1)
		word, off := pos/64, uint(pos%64)
		v := reg[word] >> off
		if off > 56 && word+1 < len(reg) {
			v |= reg[word+1] << (64 - off)
		}
		out[i] = byte(v)
	}
	e.regs.Put(regp)
}

// encodeChunks advances the encoding register eight message bytes per
// step. With reg = prefix(x)·x^r mod g, appending a 64-bit chunk M gives
// reg' = (reg·x^64 mod g) ^ (M(x)·x^r mod g); splitting reg·x^64 at
// degree r into overflow H (degrees r..r+63) and low part L, linearity
// of the slicing tables folds both terms into eight lookups on H ^ M:
// reg' = L ^ Σ_k T_k[byte_k(H ^ M)]. len(msg) must be a multiple of 8.
func (e *Encoder) encodeChunks(reg []uint64, msg []byte) {
	tab := e.slice8
	r := e.r
	if e.rw == 1 {
		// r <= 64: reg·x^64 has no bits below degree 64 >= r, so L = 0
		// and the new register is the table fold alone.
		g := reg[0]
		for i := 0; i+8 <= len(msg); i += 8 {
			h := binary.BigEndian.Uint64(msg[i:])
			if r < 64 {
				h ^= g << uint(64-r)
			} else {
				h ^= g
			}
			g = tab[byte(h)] ^
				tab[1*256+int(byte(h>>8))] ^
				tab[2*256+int(byte(h>>16))] ^
				tab[3*256+int(byte(h>>24))] ^
				tab[4*256+int(byte(h>>32))] ^
				tab[5*256+int(byte(h>>40))] ^
				tab[6*256+int(byte(h>>48))] ^
				tab[7*256+int(byte(h>>56))]
		}
		reg[0] = g
		return
	}
	rw := e.rw
	last := rw - 1
	s := uint(r % 64)
	for i := 0; i+8 <= len(msg); i += 8 {
		h := binary.BigEndian.Uint64(msg[i:])
		if s == 0 {
			h ^= reg[last]
		} else {
			h ^= reg[last]<<(64-s) | reg[last-1]>>s
		}
		for j := last; j > 0; j-- {
			reg[j] = reg[j-1]
		}
		reg[0] = 0
		if s != 0 {
			reg[last] &= 1<<s - 1
		}
		for k := 0; k < 8; k++ {
			row := tab[(k<<8|int(byte(h>>uint(8*k))))*rw:][:rw]
			for j, w := range row {
				reg[j] ^= w
			}
		}
	}
}

// topByte extracts the top 8 coefficients (degrees r-8..r-1) of the
// remainder register.
func (e *Encoder) topByte(reg []uint64) byte {
	pos := e.r - 8
	word, off := pos/64, uint(pos%64)
	v := reg[word] >> off
	if off > 56 && word+1 < len(reg) {
		v |= reg[word+1] << (64 - off)
	}
	return byte(v)
}

// shiftLeft8 shifts the register left by 8 bits and masks to r bits.
func (e *Encoder) shiftLeft8(reg []uint64) {
	for i := len(reg) - 1; i > 0; i-- {
		reg[i] = reg[i]<<8 | reg[i-1]>>56
	}
	reg[0] <<= 8
	// Mask the top word to r bits.
	if rem := uint(e.r % 64); rem != 0 {
		reg[len(reg)-1] &= (1 << rem) - 1
	}
}

// EncodeCodeword returns msg ++ parity, the systematic on-flash codeword,
// built with a single allocation: the parity is encoded directly into the
// codeword's tail.
func (e *Encoder) EncodeCodeword(msg []byte) ([]byte, error) {
	if err := e.checkGeometry(msg); err != nil {
		return nil, err
	}
	out := make([]byte, len(msg)+e.r/8)
	copy(out, msg)
	e.encodeInto(out[len(msg):], msg)
	return out, nil
}

// EncodePoly is the bit-exact polynomial reference implementation:
// it returns the full codeword polynomial msg(x)·x^r + parity(x).
// It works for any code geometry and is used to cross-validate the
// byte-wise fast path in tests.
func EncodePoly(c *Code, msg gf.Poly2) gf.Poly2 {
	if msg.Degree() >= c.K {
		panic(fmt.Sprintf("bch: message degree %d exceeds k-1 = %d", msg.Degree(), c.K-1))
	}
	shifted := msg.ShiftLeft(c.GenDegree)
	return shifted.Add(shifted.Mod(c.Gen))
}
