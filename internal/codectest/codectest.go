// Package codectest is the shared conformance suite of the ecc.Codec
// interface: one set of table-driven behavioural checks that every
// codec family — the adaptive BCH block and the soft-decision LDPC
// engine alike — must pass behind the same seam the controller programs
// against. The suite pins the contracts the rest of the stack leans on:
// level geometry (monotone parity, exact spare-to-level inversion),
// encode/decode round trips across the error-count matrix
// {0, 1, cap/2, cap, cap+1}, rollback on failure, steady-state
// allocation freedom and descriptor sanity. The round trips, the
// rollback and the allocation check run through every decode path:
// Decode, DecodeSensed fed the positions the suite flipped, and
// DecodeSoft on families with a soft path. Every successful decode must
// leave a codeword of its level — parity equal to EncodeInto's for the
// message it returns — bounded-distance miscorrections onto another
// codeword included.
package codectest

import (
	"bytes"
	"fmt"
	"testing"

	"xlnand/internal/ecc"
	"xlnand/internal/stats"
)

// Options tunes family-specific expectations.
type Options struct {
	// StrictCapPlusOne requires cap+1 errors to FAIL decoding (true for
	// bounded-distance codes like BCH, whose capability is algebraic).
	// Iterative families may repair slightly past their conservative
	// calibrated cap: for them cap+1 must either fail with rollback or
	// succeed with the exact original data — never silent corruption.
	StrictCapPlusOne bool
	// Levels lists the capability levels to exercise (nil: min, one
	// middle, max).
	Levels []int
}

// Run drives the full conformance suite against one codec.
func Run(t *testing.T, c ecc.Codec, opt Options) {
	t.Helper()
	levels := opt.Levels
	if levels == nil {
		levels = []int{c.MinLevel(), (c.MinLevel() + c.MaxLevel()) / 2, c.MaxLevel()}
	}
	t.Run("geometry", func(t *testing.T) { geometry(t, c) })
	paths := decodePaths(c)
	for _, lvl := range levels {
		lvl := lvl
		t.Run(levelName(c, lvl), func(t *testing.T) {
			for _, dp := range paths {
				matrix(t, c, dp, lvl, opt)
				rollback(t, c, dp, lvl)
			}
			descriptors(t, c, lvl)
		})
	}
	t.Run("allocs", func(t *testing.T) { allocs(t, c, paths) })
	t.Run("required-level", func(t *testing.T) { requiredLevel(t, c) })
}

func levelName(c ecc.Codec, lvl int) string {
	return fmt.Sprintf("%s-level-%d", c.Family(), lvl)
}

// decodePath is one decode entry point. flips lists the bit positions
// the suite inverted in a codeword the codec encoded.
type decodePath struct {
	name   string
	decode func(lvl int, cw []byte, flips []int) (int, error)
}

// softConfidence is the magnitude of the suite's soft input: every bit
// at one confidence, the hard decision in soft form.
const softConfidence = 4

// decodePaths lists Decode, DecodeSensed and, on a family with a soft
// path, DecodeSoft fed uniform-confidence LLRs of the received word.
func decodePaths(c ecc.Codec) []decodePath {
	paths := []decodePath{
		{"Decode", func(lvl int, cw []byte, _ []int) (int, error) { return c.Decode(lvl, cw) }},
		{"DecodeSensed", c.DecodeSensed},
	}
	if c.SupportsSoft() {
		var llr []int8 // reused, so the allocation check measures the decoder
		paths = append(paths, decodePath{"DecodeSoft", func(lvl int, cw []byte, _ []int) (int, error) {
			if len(llr) < len(cw)*8 {
				llr = make([]int8, len(cw)*8)
			}
			for i := range llr[:len(cw)*8] {
				llr[i] = softConfidence
				if cw[i/8]>>uint(7-i%8)&1 == 1 {
					llr[i] = -softConfidence
				}
			}
			return c.DecodeSoft(lvl, cw, llr[:len(cw)*8])
		}})
	}
	return paths
}

// requireCodeword fails the test unless cw, just decoded successfully
// at lvl, is a codeword of lvl: its parity bytes are exactly
// EncodeInto's for its message bytes. A copy-back relocation programs
// that parity as it stands.
func requireCodeword(t *testing.T, c ecc.Codec, dp decodePath, lvl int, cw []byte, what string) {
	t.Helper()
	k := c.DataBits() / 8
	parity := make([]byte, len(cw)-k)
	if err := c.EncodeInto(lvl, parity, cw[:k]); err != nil {
		t.Fatalf("level %d: EncodeInto: %v", lvl, err)
	}
	if !bytes.Equal(cw[k:], parity) {
		t.Fatalf("level %d %s: successful %s left a word that is not a codeword", lvl, what, dp.name)
	}
}

// geometry pins the spare-footprint contract: ParityBytes strictly
// monotone in level and LevelForSpare its exact inverse; clamping
// saturates at the range ends.
func geometry(t *testing.T, c ecc.Codec) {
	t.Helper()
	prev := -1
	for lvl := c.MinLevel(); lvl <= c.MaxLevel(); lvl++ {
		pb, err := c.ParityBytes(lvl)
		if err != nil {
			t.Fatalf("ParityBytes(%d): %v", lvl, err)
		}
		if pb <= prev {
			t.Fatalf("parity bytes not strictly ascending at level %d (%d after %d)", lvl, pb, prev)
		}
		prev = pb
		got, err := c.LevelForSpare(pb)
		if err != nil || got != lvl {
			t.Fatalf("LevelForSpare(%d) = %d, %v; want level %d", pb, got, err, lvl)
		}
		n, err := c.CodewordBits(lvl)
		if err != nil || n != c.DataBits()+pb*8 {
			t.Fatalf("CodewordBits(%d) = %d, %v; want %d", lvl, n, err, c.DataBits()+pb*8)
		}
		if cap := c.CorrectionCap(lvl); cap <= 0 {
			t.Fatalf("level %d: non-positive correction cap %d", lvl, cap)
		}
	}
	if got := c.ClampLevel(c.MinLevel() - 100); got != c.MinLevel() {
		t.Fatalf("ClampLevel below range = %d", got)
	}
	if got := c.ClampLevel(c.MaxLevel() + 100); got != c.MaxLevel() {
		t.Fatalf("ClampLevel above range = %d", got)
	}
	if _, err := c.LevelForSpare(prev + 1); err == nil {
		t.Fatal("unknown spare size accepted")
	}
}

// codeword builds a seeded random message and its encoded codeword.
func codeword(t *testing.T, c ecc.Codec, lvl int, seed uint64) (cw []byte) {
	t.Helper()
	rng := stats.NewRNG(seed)
	msg := make([]byte, c.DataBits()/8)
	for i := range msg {
		msg[i] = byte(rng.Intn(256))
	}
	pb, err := c.ParityBytes(lvl)
	if err != nil {
		t.Fatal(err)
	}
	cw = make([]byte, len(msg)+pb)
	copy(cw, msg)
	if err := c.EncodeInto(lvl, cw[len(msg):], msg); err != nil {
		t.Fatalf("EncodeInto(%d): %v", lvl, err)
	}
	return cw
}

// matrix drives the error-count grid {0, 1, cap/2, cap, cap+1} through
// one decode path. A bounded-distance family also gets exactly cap
// errors placed only in the parity bytes: the decoder must locate them
// there and hand the message back untouched; and miscorrection rows,
// where it must land on another codeword (see miscorrection).
func matrix(t *testing.T, c ecc.Codec, dp decodePath, lvl int, opt Options) {
	t.Helper()
	cap := c.CorrectionCap(lvl)
	type input struct {
		nerr       int
		parityOnly bool
	}
	inputs := []input{{0, false}, {1, false}, {cap / 2, false}, {cap, false}, {cap + 1, false}}
	if opt.StrictCapPlusOne {
		inputs = append(inputs, input{cap, true})
	}
	for _, in := range inputs {
		nerr, seed, base, where := in.nerr, uint64(5000+lvl*977+in.nerr), 0, ""
		if in.parityOnly {
			seed, base, where = seed+500, c.DataBits(), " in parity only"
		}
		rng := stats.NewRNG(seed)
		cw := codeword(t, c, lvl, seed)
		clean := append([]byte(nil), cw...)
		flips := rng.SampleK(len(cw)*8-base, nerr)
		for i := range flips {
			flips[i] += base
		}
		for _, p := range flips {
			cw[p/8] ^= 1 << uint(7-p%8)
		}
		dirty := append([]byte(nil), cw...)
		n, err := dp.decode(lvl, cw, flips)
		if err == nil {
			requireCodeword(t, c, dp, lvl, cw, fmt.Sprintf("nerr %d%s", nerr, where))
		}
		switch {
		case nerr <= cap:
			if err != nil {
				t.Fatalf("level %d: %s failed at %d <= cap %d%s: %v", lvl, dp.name, nerr, cap, where, err)
			}
			if n != nerr || !bytes.Equal(cw, clean) {
				t.Fatalf("level %d nerr %d%s: %s corrected %d, restored=%v", lvl, nerr, where, dp.name, n, bytes.Equal(cw, clean))
			}
		case err != nil:
			if !bytes.Equal(cw, dirty) {
				t.Fatalf("level %d nerr %d: failed %s modified the codeword", lvl, nerr, dp.name)
			}
		default:
			if opt.StrictCapPlusOne {
				t.Fatalf("level %d: bounded-distance family decoded cap+1 = %d errors", lvl, nerr)
			}
			// Iterative family repairing past its conservative cap: must
			// be the exact original, never a miscorrection.
			if !bytes.Equal(cw, clean) {
				t.Fatalf("level %d nerr %d: %s succeeded with wrong data", lvl, nerr, dp.name)
			}
		}
	}
	if opt.StrictCapPlusOne {
		miscorrection(t, c, dp, lvl)
	}
}

// miscorrection feeds a bounded-distance decoder words k <= cap bits
// away from clean+other, where other is another codeword: by linearity
// clean+other is a codeword too, thousands of bits from clean, and the
// only one within cap of the word, so the decode must succeed onto it.
// The flips are the support of other with the k bits toggled — the
// sensed path's route for more than cap known flips.
func miscorrection(t *testing.T, c ecc.Codec, dp decodePath, lvl int) {
	t.Helper()
	cap := c.CorrectionCap(lvl)
	for _, k := range []int{1, cap / 2, cap} {
		seed := uint64(9000 + lvl*977 + k)
		clean := codeword(t, c, lvl, seed)
		other := codeword(t, c, lvl, seed+1)
		rng := stats.NewRNG(seed)
		for _, p := range rng.SampleK(len(other)*8, k) {
			other[p/8] ^= 1 << uint(7-p%8)
		}
		cw := append([]byte(nil), clean...)
		var flips []int
		for i := 0; i < len(other)*8; i++ {
			if other[i/8]>>uint(7-i%8)&1 == 1 {
				cw[i/8] ^= 1 << uint(7-i%8)
				flips = append(flips, i)
			}
		}
		n, err := dp.decode(lvl, cw, flips)
		if err != nil || n != k {
			t.Fatalf("level %d: %s of a word %d bits from another codeword = (%d, %v), want (%d, nil)", lvl, dp.name, k, n, err, k)
		}
		if bytes.Equal(cw, clean) {
			t.Fatalf("level %d: %s restored the sent codeword from %d flips", lvl, dp.name, len(flips))
		}
		requireCodeword(t, c, dp, lvl, cw, fmt.Sprintf("miscorrection k=%d", k))
	}
}

// rollback floods the decoder far past any capability and checks the
// input is untouched on failure.
func rollback(t *testing.T, c ecc.Codec, dp decodePath, lvl int) {
	t.Helper()
	cap := c.CorrectionCap(lvl)
	rng := stats.NewRNG(uint64(31000 + lvl))
	cw := codeword(t, c, lvl, uint64(31000+lvl))
	flips := rng.SampleK(len(cw)*8, 6*cap)
	for _, p := range flips {
		cw[p/8] ^= 1 << uint(7-p%8)
	}
	dirty := append([]byte(nil), cw...)
	if _, err := dp.decode(lvl, cw, flips); err == nil {
		// Astronomically unlikely for either family at 6x cap — and if
		// it does decode, it must be exact, which 6x cap cannot be.
		t.Fatalf("level %d: %s of %d errors claimed success", lvl, dp.name, 6*cap)
	}
	if !bytes.Equal(cw, dirty) {
		t.Fatalf("level %d: failed %s modified the codeword", lvl, dp.name)
	}
}

// descriptors sanity-checks the latency and reliability surfaces.
func descriptors(t *testing.T, c ecc.Codec, lvl int) {
	t.Helper()
	if enc := c.EncodeLatency(lvl); enc <= 0 {
		t.Fatalf("level %d: encode latency %v", lvl, enc)
	}
	clean, dirty := c.DecodeLatency(lvl, true), c.DecodeLatency(lvl, false)
	if clean <= 0 || dirty <= clean {
		t.Fatalf("level %d: decode latencies clean=%v dirty=%v", lvl, clean, dirty)
	}
	if c.SupportsSoft() {
		if soft := c.SoftDecodeLatency(lvl); soft <= dirty {
			t.Fatalf("level %d: soft decode latency %v not above dirty %v", lvl, soft, dirty)
		}
	} else {
		cw := codeword(t, c, lvl, 1)
		llr := make([]int8, len(cw)*8)
		if _, err := c.DecodeSoft(lvl, cw, llr); err == nil {
			t.Fatalf("level %d: soft decode succeeded on a family without a soft path", lvl)
		}
	}
	// The projected UBER must fall as the level rises at fixed RBER.
	if c.MaxLevel() > c.MinLevel() {
		lo := c.ProjectedUBER(c.MinLevel(), 1e-4)
		hi := c.ProjectedUBER(c.MaxLevel(), 1e-4)
		if hi >= lo {
			t.Fatalf("ProjectedUBER not improving with level: min %.3e max %.3e", lo, hi)
		}
	}
}

// allocs pins the steady-state allocation freedom of the hot paths on
// the strongest level: every decode path, and EncodeInto.
func allocs(t *testing.T, c ecc.Codec, paths []decodePath) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	lvl := c.MaxLevel()
	cap := c.CorrectionCap(lvl)
	rng := stats.NewRNG(61000)
	cw := codeword(t, c, lvl, 61000)
	msg := append([]byte(nil), cw[:c.DataBits()/8]...)
	pb, _ := c.ParityBytes(lvl)
	parity := make([]byte, pb)
	flips := rng.SampleK(len(cw)*8, cap/2)
	for _, p := range flips {
		cw[p/8] ^= 1 << uint(7-p%8)
	}
	dirty := append([]byte(nil), cw...)
	for _, dp := range paths {
		copy(cw, dirty)
		if _, err := dp.decode(lvl, cw, flips); err != nil {
			t.Fatal(err) // warm tables and scratch pools outside the pin
		}
		if a := testing.AllocsPerRun(10, func() {
			copy(cw, dirty)
			if _, err := dp.decode(lvl, cw, flips); err != nil {
				t.Fatal(err)
			}
		}); a > 0 {
			t.Fatalf("steady-state %s allocates %.1f objects/op, want 0", dp.name, a)
		}
	}
	if a := testing.AllocsPerRun(10, func() {
		if err := c.EncodeInto(lvl, parity, msg); err != nil {
			t.Fatal(err)
		}
	}); a > 0 {
		t.Fatalf("steady-state EncodeInto allocates %.1f objects/op, want 0", a)
	}
}

// requiredLevel checks the level solver: monotone in RBER, meeting the
// target at the returned level, erroring when nothing can.
func requiredLevel(t *testing.T, c ecc.Codec) {
	t.Helper()
	const target = 1e-11
	prev := c.MinLevel()
	for _, rber := range []float64{1e-7, 1e-6, 1e-5, 1e-4, 3e-4} {
		lvl, err := c.RequiredLevel(rber, target)
		if err != nil {
			t.Fatalf("RequiredLevel(%g): %v", rber, err)
		}
		if lvl < prev {
			t.Fatalf("RequiredLevel not monotone: %d after %d at %g", lvl, prev, rber)
		}
		prev = lvl
		if u := c.ProjectedUBER(lvl, rber); u > target {
			t.Fatalf("level %d at RBER %g projects %.3e above target", lvl, rber, u)
		}
	}
	if _, err := c.RequiredLevel(0.2, target); err == nil {
		t.Fatal("unreachable target accepted")
	}
}
