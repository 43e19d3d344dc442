package bch

// DecodeSensed against Decode: for every capability whose division
// Decode runs at a different register width (t = 3 and 8: the
// interleaved one- and two-word loops; 9, 16 and 65: the generic
// loop), every error weight from none to far past t, errors confined to
// the parity bytes, and patterns that land on or next to another
// codeword, decoding a copy of the received word from its flip
// positions must give Decode's count, Decode's error and Decode's
// bytes.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"xlnand/internal/reference"
	"xlnand/internal/stats"
)

// sensedOutcome classifies one decode for the coverage check.
type sensedOutcome int

const (
	outCorrected   sensedOutcome = iota // success, original codeword restored
	outMiscorrect                       // success onto another codeword
	outUndetected                       // zero syndromes: the word is another codeword
	outUncorrected                      // ErrUncorrectable, buffer rolled back
)

// checkSensed decodes the received word (clean with flips inverted)
// through Decode and, on a separate copy, through DecodeSensed, fails
// the test unless the two agree exactly, and classifies the outcome.
func checkSensed(t *testing.T, codec *Codec, tcap int, clean []byte, flips []int) sensedOutcome {
	t.Helper()
	received := append([]byte(nil), clean...)
	flipBits(received, flips)
	viaPage := append([]byte(nil), received...)
	viaFlips := append([]byte(nil), received...)
	n, err := codec.Decode(tcap, viaPage)
	sn, serr := codec.DecodeSensed(tcap, viaFlips, flips)
	if n != sn || !errors.Is(serr, err) || !errors.Is(err, serr) {
		t.Fatalf("t=%d, %d flips: Decode = (%d, %v), DecodeSensed = (%d, %v)", tcap, len(flips), n, err, sn, serr)
	}
	if !bytes.Equal(viaPage, viaFlips) {
		t.Fatalf("t=%d, %d flips: DecodeSensed left different bytes from Decode", tcap, len(flips))
	}
	switch {
	case err != nil:
		if !errors.Is(err, ErrUncorrectable) {
			t.Fatalf("t=%d, %d flips: unexpected error %v", tcap, len(flips), err)
		}
		if !bytes.Equal(viaPage, received) {
			t.Fatalf("t=%d, %d flips: failed decode modified the codeword", tcap, len(flips))
		}
		return outUncorrected
	case bytes.Equal(viaPage, clean):
		return outCorrected
	case n == 0:
		return outUndetected
	default:
		return outMiscorrect
	}
}

// supportOf lists the set bit positions of a codeword.
func supportOf(cw []byte) []int {
	var pos []int
	for i := 0; i < 8*len(cw); i++ {
		if cw[i/8]>>uint(7-i%8)&1 == 1 {
			pos = append(pos, i)
		}
	}
	return pos
}

func TestDecodeSensedMatchesDecode(t *testing.T) {
	codec, err := NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[sensedOutcome]int{}
	for _, tcap := range []int{3, 8, 9, 16, 65} {
		code, err := codec.Code(tcap)
		if err != nil {
			t.Fatal(err)
		}
		nbits, rbits := code.CodewordBits(), code.GenDegree
		r := stats.NewRNG(uint64(7100 + tcap))
		clean, err := codec.EncodeCodeword(tcap, randMsg(r, codec.K/8))
		if err != nil {
			t.Fatal(err)
		}
		// The message whose only set bit is its last encodes to g(x)
		// itself: a codeword of weight >= 2t+1 inside the last r+1 bits.
		unit := make([]byte, codec.K/8)
		unit[len(unit)-1] = 1
		gcw, err := codec.EncodeCodeword(tcap, unit)
		if err != nil {
			t.Fatal(err)
		}
		gsup := supportOf(gcw)

		for _, w := range dedupeCounts(0, 1, tcap/2, tcap, tcap+1, tcap+3, 2*tcap+5) {
			t.Run(fmt.Sprintf("t=%d/errs=%d", tcap, w), func(t *testing.T) {
				for trial := 0; trial < 3; trial++ {
					seen[checkSensed(t, codec, tcap, clean, r.SampleK(nbits, w))]++
				}
				// Every flip in the parity bytes.
				parity := r.SampleK(rbits, min(w, rbits))
				for i := range parity {
					parity[i] += nbits - rbits
				}
				seen[checkSensed(t, codec, tcap, clean, parity)]++
			})
		}
		// Flipping all of g(x) but k of its bits leaves the word k bits
		// from clean+g: k <= t miscorrects onto it, k = 0 is that
		// codeword itself (zero syndromes), k = t+1 is past it.
		for _, k := range dedupeCounts(0, 1, tcap, tcap+1) {
			t.Run(fmt.Sprintf("t=%d/near-codeword-%d", tcap, k), func(t *testing.T) {
				out := checkSensed(t, codec, tcap, clean, gsup[k:])
				want := outMiscorrect
				if k == 0 {
					want = outUndetected
				}
				if k <= tcap && out != want {
					t.Fatalf("%d bits from another codeword: outcome %d, want %d", k, out, want)
				}
				seen[out]++
			})
		}
		// The support of a random codeword c' with k <= t of its bits
		// toggled, in and out of it: thousands of flips from clean, k
		// from clean+c', where both decodes must land.
		other, err := codec.EncodeCodeword(tcap, randMsg(r, codec.K/8))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range dedupeCounts(1, tcap/2, tcap) {
			t.Run(fmt.Sprintf("t=%d/other-codeword-%d", tcap, k), func(t *testing.T) {
				near := append([]byte(nil), other...)
				flipBits(near, r.SampleK(nbits, k))
				if out := checkSensed(t, codec, tcap, clean, supportOf(near)); out != outMiscorrect {
					t.Fatalf("%d bits from clean+c': outcome %d, want a miscorrection", k, out)
				}
				seen[outMiscorrect]++
			})
		}
	}
	for _, o := range []sensedOutcome{outCorrected, outMiscorrect, outUndetected, outUncorrected} {
		if seen[o] == 0 {
			t.Errorf("no pattern reached outcome %d (seen %v)", o, seen)
		}
	}
}

// TestDecodeSensedShortcutBoundary pins where the bounded-distance
// shortcut stops, on a decoder whose scratch list is drained and whose
// refills are counted. Exactly t flips must take no scratch: a shortcut
// taken only below t leaves the same bytes and count, so only the
// scratch count tells it apart. t+1 flips must run the tail (one refill)
// and, like Decode, report the word uncorrectable.
func TestDecodeSensedShortcutBoundary(t *testing.T) {
	if reference.On {
		t.Skip("the reference build has no shortcut")
	}
	codec, err := NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	for _, tcap := range []int{3, 65} {
		code, err := codec.Code(tcap)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDecoder(code, nil)
		d.pool.Get() // the scratch NewDecoder parks
		built := 0
		build := d.pool.New
		d.pool.New = func() *decodeScratch { built++; return build() }

		nbits := code.CodewordBits()
		r := stats.NewRNG(uint64(7300 + tcap))
		clean, err := codec.EncodeCodeword(tcap, randMsg(r, codec.K/8))
		if err != nil {
			t.Fatal(err)
		}
		flips := r.SampleK(nbits, tcap)
		cw := append([]byte(nil), clean...)
		flipBits(cw, flips)
		if n, err := d.DecodeSensed(cw, flips); err != nil || n != tcap || !bytes.Equal(cw, clean) {
			t.Fatalf("t=%d, t flips: DecodeSensed = (%d, %v), restored %v", tcap, n, err, bytes.Equal(cw, clean))
		}
		if built != 0 {
			t.Fatalf("t=%d, t flips: the decode took scratch; the shortcut stops below t", tcap)
		}

		flips = r.SampleK(nbits, tcap+1)
		cw = append(cw[:0], clean...)
		flipBits(cw, flips)
		received := append([]byte(nil), cw...)
		if n, err := d.DecodeSensed(cw, flips); !errors.Is(err, ErrUncorrectable) || !bytes.Equal(cw, received) {
			t.Fatalf("t=%d, t+1 flips: DecodeSensed = (%d, %v), rolled back %v; want ErrUncorrectable",
				tcap, n, err, bytes.Equal(cw, received))
		}
		if built != 1 {
			t.Fatalf("t=%d, t+1 flips: %d scratch builds, want 1 (the full tail)", tcap, built)
		}
	}
}

// TestDecodeSensedZeroAlloc pins NewDecoder's parked scratch. Sensed
// decodes of at most t flips take none, so on a fresh codec the first
// decode that does is a read past t; it must not build one. The count
// is runtime.MemStats', not testing.AllocsPerRun's, which warms up with
// an uncounted call: here the first call is the one under test. MemStats
// counts the whole process, so the test keeps the best of three fresh
// codecs; building the scratch costs 11 allocations every time.
func TestDecodeSensedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	best := uint64(1 << 63)
	for trial := range 3 {
		best = min(best, freshSensedMallocs(t, uint64(7500+trial)))
	}
	if best != 0 {
		t.Fatalf("sensed decodes on a fresh codec made %d allocations, want 0", best)
	}
}

// freshSensedMallocs builds a fresh t = 65 codec and counts the mallocs
// of sensed decodes at 1, t/2 and t flips followed by one at t+1.
func freshSensedMallocs(t *testing.T, seed uint64) uint64 {
	const tcap = 65
	codec, err := NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	code, err := codec.Code(tcap)
	if err != nil {
		t.Fatal(err)
	}
	nbits := code.CodewordBits()
	r := stats.NewRNG(seed)
	cw, err := codec.EncodeCodeword(tcap, randMsg(r, codec.K/8))
	if err != nil {
		t.Fatal(err)
	}
	few := [][]int{r.SampleK(nbits, 1), r.SampleK(nbits, tcap/2), r.SampleK(nbits, tcap)}
	past := r.SampleK(nbits, tcap+1)
	counts := make([]int, len(few))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, flips := range few {
		flipBits(cw, flips)
		counts[i], _ = codec.DecodeSensed(tcap, cw, flips)
	}
	flipBits(cw, past)
	_, pastErr := codec.DecodeSensed(tcap, cw, past)
	runtime.ReadMemStats(&after)

	for i, flips := range few {
		if counts[i] != len(flips) {
			t.Fatalf("%d flips: corrected %d", len(flips), counts[i])
		}
	}
	if !errors.Is(pastErr, ErrUncorrectable) {
		t.Fatalf("t+1 flips: %v, want ErrUncorrectable", pastErr)
	}
	return after.Mallocs - before.Mallocs
}

// TestDecodeSensedRejectsBadInput checks the argument errors: a flip
// outside the codeword and a buffer of the wrong length, which Decode
// rejects the same way.
func TestDecodeSensedRejectsBadInput(t *testing.T) {
	codec, err := NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	code, err := codec.Code(8)
	if err != nil {
		t.Fatal(err)
	}
	cw := make([]byte, code.CodewordBits()/8)
	for _, p := range []int{-1, code.CodewordBits()} {
		if _, err := codec.DecodeSensed(8, cw, []int{p}); err == nil {
			t.Fatalf("flip at %d accepted", p)
		}
	}
	if _, err := codec.DecodeSensed(8, cw[1:], nil); err == nil {
		t.Fatal("short codeword accepted")
	}
	if _, err := codec.DecodeSensed(2, cw, nil); err == nil {
		t.Fatal("capability outside the codec's range accepted")
	}
}

// FuzzDecodeSensed is TestDecodeSensedMatchesDecode with the capability
// (every t in 3..65), the message seed and the flip positions chosen by
// the fuzzer: raw is read as big-endian 16-bit words, each a position
// in the codeword (or, with inParity, in its parity bytes); repeats are
// dropped, since a sense never reports one bit twice.
func FuzzDecodeSensed(f *testing.F) {
	f.Add(byte(0), uint64(1), []byte{}, false)
	f.Add(byte(5), uint64(2), []byte{0x00, 0x07, 0x80, 0x00, 0xff, 0xff}, false)
	f.Add(byte(6), uint64(3), []byte{0x00, 0x01, 0x00, 0x02, 0x00, 0x03}, true)
	f.Add(byte(62), uint64(4), bytes.Repeat([]byte{0x13, 0x57, 0x9b}, 22), false)
	f.Add(byte(62), uint64(5), bytes.Repeat([]byte{0x5a, 0xa5, 0x3c, 0x0f}, 40), false)

	f.Fuzz(func(t *testing.T, tsel byte, msgSeed uint64, raw []byte, inParity bool) {
		codec, err := fuzzPageCodec()
		if err != nil {
			t.Fatal(err)
		}
		tcap := codec.TMin + int(tsel)%(codec.TMax-codec.TMin+1)
		code, err := codec.Code(tcap)
		if err != nil {
			t.Fatal(err)
		}
		nbits := code.CodewordBits()
		base, span := 0, nbits
		if inParity {
			base, span = nbits-code.GenDegree, code.GenDegree
		}
		seen := map[int]bool{}
		var flips []int
		for i := 0; i+1 < len(raw) && len(flips) < 4*codec.TMax; i += 2 {
			p := base + int(uint32(raw[i])<<8|uint32(raw[i+1]))%span
			if !seen[p] {
				seen[p] = true
				flips = append(flips, p)
			}
		}
		clean, err := codec.EncodeCodeword(tcap, randMsg(stats.NewRNG(msgSeed), codec.K/8))
		if err != nil {
			t.Fatal(err)
		}
		out := checkSensed(t, codec, tcap, clean, flips)
		if len(flips) <= tcap && out != outCorrected {
			t.Fatalf("t=%d: %d flips not corrected (outcome %d)", tcap, len(flips), out)
		}
	})
}
