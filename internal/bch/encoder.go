package bch

import (
	"fmt"

	"xlnand/internal/freelist"
	"xlnand/internal/gf"
)

// Encoder performs systematic BCH encoding: parity(x) = msg(x)·x^r mod g(x),
// the exact computation the paper's programmable parallel LFSR performs in
// k/p clock cycles. The software implementation is the division kernel of
// remainder.go run premultiplied — 64 message bits per step through the
// slicing table (a p = 64 parallel LFSR network with its XOR taps
// selected by the ROM of characteristic polynomials).
//
// Encoder is safe for concurrent use; the remainder register comes from
// a free list so steady-state encoding does not allocate.
type Encoder struct {
	code *Code
	tab  *divTables              // shared and immutable; nil when r is not byte-aligned
	regs freelist.List[[]uint64] // remainder registers, len rw: private, so drives never meet on its lock
}

// NewEncoder binds an encoder to the code's division tables (built on
// first use of the geometry, then shared). Encoding requires a
// byte-aligned r >= 8; the page-scale codes used by the flash controller
// (r = 16·t >= 48) always satisfy this. For smaller toy codes use the
// polynomial API (EncodePoly).
func NewEncoder(c *Code) *Encoder {
	e := &Encoder{code: c, tab: tablesFor(c)}
	rw := (c.GenDegree + 63) / 64
	e.regs.New = func() *[]uint64 { p := make([]uint64, rw); return &p }
	return e
}

// checkGeometry validates the byte-wise fast-path preconditions.
func (e *Encoder) checkGeometry(msg []byte) error {
	k, r := e.code.K, e.code.GenDegree
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

// EncodeInto computes the parity block for msg, which must be exactly
// k/8 bytes (k must be byte-aligned), into parity, which must be exactly
// r/8 bytes: the coefficient of x^(r-1) lands in the MSB of byte 0,
// matching the spare-area layout used by the controller. It is the
// allocation-free steady-state write path.
func (e *Encoder) EncodeInto(parity, msg []byte) error {
	if err := e.checkGeometry(msg); err != nil {
		return err
	}
	if len(parity) != e.tab.rb {
		return fmt.Errorf("bch: parity buffer is %d bytes, want %d", len(parity), e.tab.rb)
	}
	e.encodeInto(parity, msg)
	return nil
}

// encodeInto divides msg(x)·x^r by g and serialises the remainder
// register MSB-first into out (validated, len r/8).
func (e *Encoder) encodeInto(out, msg []byte) {
	regp := e.regs.Get()
	e.tab.divide(*regp, msg, true)
	e.tab.serialise(out, *regp)
	e.regs.Put(regp)
}

// EncodeCodeword returns msg ++ parity, the systematic on-flash codeword,
// built with a single allocation: the parity is encoded directly into the
// codeword's tail.
func (e *Encoder) EncodeCodeword(msg []byte) ([]byte, error) {
	if err := e.checkGeometry(msg); err != nil {
		return nil, err
	}
	out := make([]byte, len(msg)+e.tab.rb)
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
