package nand

import (
	"encoding/binary"
	"fmt"
)

// Level identifies one of the four V_TH distributions of a 2-bit MLC cell
// (paper Fig. 3): L0 is the erased state, L1-L3 are programmed.
type Level uint8

const (
	L0 Level = iota
	L1
	L2
	L3
	numLevels
)

// String implements fmt.Stringer.
func (l Level) String() string { return fmt.Sprintf("L%d", uint8(l)) }

// Valid reports whether l is one of the four MLC levels.
func (l Level) Valid() bool { return l < numLevels }

// grayEncode maps a level to its 2-bit Gray pattern (upper bit, lower
// bit). Adjacent levels differ in exactly one bit, so a one-level misread
// costs one bit error — the property that links the level-shift
// probability to RBER.
//
//	L0 = 11, L1 = 10, L2 = 00, L3 = 01
var grayEncode = [numLevels]uint8{0b11, 0b10, 0b00, 0b01}

// grayDecode inverts grayEncode.
var grayDecode = func() [4]Level {
	var d [4]Level
	for l, bits := range grayEncode {
		d[bits] = Level(l)
	}
	return d
}()

// Bits returns the Gray-coded (upper, lower) bit pair stored by a cell at
// level l.
func (l Level) Bits() (upper, lower uint8) {
	b := grayEncode[l]
	return b >> 1 & 1, b & 1
}

// LevelFromBits returns the level storing the given Gray-coded bit pair.
func LevelFromBits(upper, lower uint8) Level {
	return grayDecode[(upper&1)<<1|lower&1]
}

// BitErrors returns the number of bit errors caused by reading level got
// when level want was stored (Hamming distance of the Gray patterns).
func BitErrors(want, got Level) int {
	x := grayEncode[want] ^ grayEncode[got]
	return int(x&1 + x>>1&1)
}

// TargetLevels converts a data byte pair stream into per-cell target
// levels: each cell stores 2 bits, MSB-first within each byte, with the
// even bit (0,2,4,6) as the upper page bit and the odd bit as the lower
// page bit. The returned slice has 4 levels per byte.
func TargetLevels(data []byte) []Level {
	out := make([]Level, 0, len(data)*4)
	for _, b := range data {
		for i := 0; i < 4; i++ {
			upper := b >> uint(7-2*i) & 1
			lower := b >> uint(6-2*i) & 1
			out = append(out, LevelFromBits(upper, lower))
		}
	}
	return out
}

// LevelsToBytesInto inverts TargetLevels: it packs levels into dst,
// which must hold (len(levels)+3)/4 bytes; written bytes are fully
// assembled before the store (and any partial tail byte cleared first),
// so a reused scratch buffer never leaks a previous read's bits.
//
// The bulk runs word-parallel: 32 cells assemble into one uint64 — each
// cell contributes its 2-bit Gray pattern MSB-first, exactly the scalar
// layout — and land as 8 output bytes per big-endian store.
func LevelsToBytesInto(dst []byte, levels []Level) []byte {
	dst = dst[:(len(levels)+3)/4]
	n32 := len(levels) &^ 31
	for c := 0; c < n32; c += 32 {
		var w uint64
		for _, l := range levels[c : c+32 : c+32] {
			w = w<<2 | uint64(grayEncode[l])
		}
		binary.BigEndian.PutUint64(dst[c/4:], w)
	}
	for i := n32 / 4; i < len(dst); i++ {
		dst[i] = 0
	}
	for i := n32; i < len(levels); i++ {
		upper, lower := levels[i].Bits()
		dst[i/4] |= upper << uint(7-2*(i%4))
		dst[i/4] |= lower << uint(6-2*(i%4))
	}
	return dst
}

// VerifyTarget returns the verify voltage a programmed level must exceed;
// it panics for L0, which is reached by erase, not program.
func (c Calibration) VerifyTarget(l Level) float64 {
	if l == L0 || !l.Valid() {
		panic("nand: no verify level for " + l.String())
	}
	return c.VFY[l-1]
}

// ClassifyVTHShifted returns the level a read operation infers from a
// cell threshold voltage, by comparison against R1..R3 (paper Fig. 3)
// shifted by the per-boundary offset triple — the sensing primitive of
// staged read-retry (negative offsets track retention drift toward
// erase; ReadOffsets{} is the nominal read).
func (c Calibration) ClassifyVTHShifted(vth float64, off ReadOffsets) Level {
	switch {
	case vth < c.Read[0]+off[0]:
		return L0
	case vth < c.Read[1]+off[1]:
		return L1
	case vth < c.Read[2]+off[2]:
		return L2
	default:
		return L3
	}
}
