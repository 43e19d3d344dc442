package ldpc

import (
	"bytes"
	"runtime"
	"testing"

	"xlnand/internal/reference"
	"xlnand/internal/stats"
)

// TestDecodeSensedZeroFlips pins the zero-flip case on a decoder whose
// scratch list is drained and whose refills are counted: a stamped word
// with no flips decodes to itself with count 0 and takes no scratch,
// while one flip runs the decoder (one refill) and repairs it.
func TestDecodeSensedZeroFlips(t *testing.T) {
	if reference.On {
		t.Skip("the reference build decodes every sensed word")
	}
	c := testRig(t)
	for _, lvl := range []int{0, c.MaxLevel()} {
		clean := makeCodeword(t, c, lvl, uint64(8100+lvl))
		d, err := c.at(lvl)
		if err != nil {
			t.Fatal(err)
		}
		d.pool.Get() // the scratch newDecoder parks
		built := 0
		build := d.pool.New
		d.pool.New = func() *decodeScratch { built++; return build() }

		cw := append([]byte(nil), clean...)
		if n, err := c.DecodeSensed(lvl, cw, nil); err != nil || n != 0 || !bytes.Equal(cw, clean) {
			t.Fatalf("level %d, no flips: DecodeSensed = (%d, %v), untouched %v", lvl, n, err, bytes.Equal(cw, clean))
		}
		if built != 0 {
			t.Fatalf("level %d, no flips: the decode took scratch", lvl)
		}
		pos := flip(cw, 1, stats.NewRNG(uint64(8200+lvl)))
		if n, err := c.DecodeSensed(lvl, cw, pos); err != nil || n != 1 || !bytes.Equal(cw, clean) {
			t.Fatalf("level %d, one flip: DecodeSensed = (%d, %v), restored %v", lvl, n, err, bytes.Equal(cw, clean))
		}
		if built != 1 {
			t.Fatalf("level %d, one flip: %d scratch builds, want 1", lvl, built)
		}
	}
}

// TestFirstDecodeZeroAlloc pins newDecoder's parked scratch. Clean
// sensed reads take none, so on a fresh codec the first decode that
// does is a rare corrupted read; it must not build one. The count is
// runtime.MemStats', not testing.AllocsPerRun's, which warms up with an
// uncounted call: here the first call is the one under test. MemStats
// counts the whole process, so the test keeps the best of three fresh
// codecs.
func TestFirstDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	best := uint64(1 << 63)
	for trial := range 3 {
		best = min(best, firstDecodeMallocs(t, uint64(8300+trial)))
	}
	if best != 0 {
		t.Fatalf("the first corrupted decode on a fresh codec made %d allocations, want 0", best)
	}
}

// firstDecodeMallocs builds a fresh codec, encodes one word at the
// deepest level (which builds the level's decoder) and counts the
// mallocs of the first decode of that word with a few bits flipped.
func firstDecodeMallocs(t *testing.T, seed uint64) uint64 {
	c := testRig(t)
	lvl := c.MaxLevel()
	cw := makeCodeword(t, c, lvl, seed)
	pos := flip(cw, c.CorrectionCap(lvl)/2, stats.NewRNG(seed))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := c.DecodeSensed(lvl, cw, pos)
	runtime.ReadMemStats(&after)
	if err != nil || n != len(pos) {
		t.Fatalf("%d flips: DecodeSensed = (%d, %v)", len(pos), n, err)
	}
	return after.Mallocs - before.Mallocs
}
