package ldpc

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"xlnand/internal/stats"
)

// TestMeasuredLatencyCalibration pins the contract of the measured
// iteration tables: weight zero prices exactly like the flat clean
// estimate (one syndrome pass), any real error weight costs more than
// clean, heavier weights never undercut a one-bit upset, and weights
// past the flip guard clamp instead of extrapolating.
func TestMeasuredLatencyCalibration(t *testing.T) {
	c := testRig(t)
	for lvl := 0; lvl <= c.MaxLevel(); lvl++ {
		clean := c.DecodeLatency(lvl, true)
		if got := c.MeasuredDecodeLatency(lvl, 0); got != clean {
			t.Fatalf("level %d: measured(0) = %v, clean estimate = %v", lvl, got, clean)
		}
		one := c.MeasuredDecodeLatency(lvl, 1)
		if one <= clean {
			t.Fatalf("level %d: measured(1) = %v not above clean %v", lvl, one, clean)
		}
		cap := c.CorrectionCap(lvl)
		atCap := c.MeasuredDecodeLatency(lvl, cap)
		if atCap < one {
			t.Fatalf("level %d: measured(cap=%d) = %v below measured(1) = %v", lvl, cap, atCap, one)
		}
		// Past the guard the table clamps: refused decodes never book an
		// unbounded cost.
		if got, want := c.MeasuredDecodeLatency(lvl, 100*cap), c.MeasuredDecodeLatency(lvl, flipGuard(cap)); got != want {
			t.Fatalf("level %d: measured(100*cap) = %v, want clamp to %v", lvl, got, want)
		}
	}
}

// TestMeasuredLatencyDeterministic: calibration is seeded, so a fresh
// calibration at every level reproduces the committed page tables bit
// for bit — the property that keeps latency trajectories reproducible
// across runs. The page codec prices from those tables, and every codec
// of the geometry shares one code structure instead of rebuilding it per
// drive. On a mismatch the test prints the regenerated literal for
// latency_tables.go.
func TestMeasuredLatencyDeterministic(t *testing.T) {
	a := testRig(t)
	b := testRig(t)
	if len(pageMeasuredIters) != a.MaxLevel()+1 {
		t.Errorf("committed tables cover %d levels, codec has %d", len(pageMeasuredIters), a.MaxLevel()+1)
	}
	fresh := make([][]float64, a.MaxLevel()+1)
	for lvl := range fresh {
		fresh[lvl] = calibrate(t, b, lvl)
		if lvl >= len(pageMeasuredIters) || !bitsEqual(fresh[lvl], pageMeasuredIters[lvl]) {
			t.Errorf("level %d: a fresh calibration differs from the committed table", lvl)
		}
		if lvl >= len(a.iters) || !bitsEqual(a.iters[lvl], pageMeasuredIters[lvl]) {
			t.Errorf("level %d: the page codec does not price from the committed table", lvl)
		}
		da, _ := a.at(lvl)
		db, _ := b.at(lvl)
		if da.c != db.c {
			t.Errorf("level %d: second codec built a private code structure", lvl)
		}
	}
	if t.Failed() {
		t.Logf("regenerated literal for latency_tables.go:\n%s", itersLiteral(fresh))
	}
}

// TestMeasuredLatencyOtherGeometry: a geometry without committed tables
// prices every decode exactly like the flat estimate, clean at weight
// zero and dirty above it.
func TestMeasuredLatencyOtherGeometry(t *testing.T) {
	c, err := fuzzCodec()
	if err != nil {
		t.Fatal(err)
	}
	for lvl := 0; lvl <= c.MaxLevel(); lvl++ {
		for _, w := range []int{0, 1, c.CorrectionCap(lvl), 100} {
			if got, want := c.MeasuredDecodeLatency(lvl, w), c.DecodeLatency(lvl, w == 0); got != want {
				t.Errorf("level %d weight %d: measured %v, flat estimate %v", lvl, w, got, want)
			}
		}
	}
}

// The generator of the committed tables. It is seeded, so its output is
// exact and the literal in latency_tables.go is checked against it.
const (
	// calTrials decodes per sampled weight; the layered schedule is
	// near-deterministic in weight, so a small sample already has tight
	// spread.
	calTrials = 3
	// calGridSteps sampled weights per level (intermediate weights are
	// linearly interpolated).
	calGridSteps = 8
	// calSeed roots the calibration RNG; mixed with the level so every
	// level measures an independent — but reproducible — pattern set.
	calSeed = 0x1d9c0decca11b8a7
)

// calibrate measures the level's iterations-to-converge curve: encode a
// seeded random message, flip w bits, decode, record the iteration
// count the engine reports — the direct observable, not a model of it.
// Weights between grid points interpolate linearly; the table ends at
// the flip guard (heavier decodes are refused anyway).
func calibrate(tb testing.TB, c *Codec, level int) []float64 {
	tb.Helper()
	maxW := flipGuard(c.p.HardCap[level])
	iters := make([]float64, maxW+1)
	d, err := c.at(level)
	if err != nil {
		tb.Fatal(err)
	}
	rng := stats.NewRNG(calSeed + uint64(level)*0x9e3779b97f4a7c15)
	msg := make([]byte, c.p.K/8)
	for i := range msg {
		msg[i] = byte(rng.Intn(256))
	}
	pb, _ := c.ParityBytes(level)
	clean := make([]byte, len(msg)+pb)
	copy(clean, msg)
	if err := c.EncodeInto(level, clean[len(msg):], msg); err != nil {
		tb.Fatal(err)
	}
	cw := make([]byte, len(clean))
	step := max(maxW/calGridSteps, 1)
	prevW, prevIters := 0, 0.0
	record := func(w int, mean float64) {
		// Fill the gap from the previous grid point by interpolation.
		for u := prevW + 1; u <= w; u++ {
			frac := float64(u-prevW) / float64(w-prevW)
			iters[u] = prevIters + frac*(mean-prevIters)
		}
		prevW, prevIters = w, mean
	}
	for w := step; w <= maxW; w += step {
		if w+step > maxW {
			w = maxW // land the grid exactly on the guard bound
		}
		total := 0
		for trial := 0; trial < calTrials; trial++ {
			copy(cw, clean)
			for _, p := range rng.SampleK(len(cw)*8, w) {
				cw[p/8] ^= 1 << uint(7-p%8)
			}
			// A failed decode counts too — beyond the cliff (possible
			// near the guard bound) the engine burned what it burned;
			// that is the cost.
			_, n, _ := d.decodeIter(cw, nil, maxIterHard, maxW)
			total += n
		}
		record(w, float64(total)/calTrials)
		if w == maxW {
			break
		}
	}
	return iters
}

// bitsEqual compares two tables bit for bit.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// itersLiteral renders tables as the pageMeasuredIters declaration,
// each value in the shortest form that round-trips exactly.
func itersLiteral(tables [][]float64) string {
	var sb strings.Builder
	sb.WriteString("var pageMeasuredIters = [][]float64{\n")
	for lvl, iters := range tables {
		fmt.Fprintf(&sb, "\t// level %d: weights 0..%d\n\t{", lvl, len(iters)-1)
		for i, x := range iters {
			if i%6 == 0 {
				sb.WriteString("\n\t\t")
			} else {
				sb.WriteString(" ")
			}
			sb.WriteString(strconv.FormatFloat(x, 'g', -1, 64) + ",")
		}
		sb.WriteString("\n\t},\n")
	}
	sb.WriteString("}\n")
	return sb.String()
}

// TestMeasuredLatencyBounded: the measured cost of a rated correction
// stays within the engine's iteration budget priced through the same
// pipeline model — a sanity rail against a runaway calibration.
func TestMeasuredLatencyBounded(t *testing.T) {
	c := testRig(t)
	for lvl := 0; lvl <= c.MaxLevel(); lvl++ {
		atGuard := c.MeasuredDecodeLatency(lvl, flipGuard(c.CorrectionCap(lvl)))
		// DecodeLatency prices AvgItersHard iterations; the hard budget
		// is maxIterHard, so scale the dirty estimate accordingly.
		dirty := c.DecodeLatency(lvl, false)
		bound := time.Duration(float64(dirty) * float64(maxIterHard) / DefaultHWConfig().AvgItersHard)
		if atGuard > bound {
			t.Fatalf("level %d: measured(guard) = %v exceeds budget bound %v", lvl, atGuard, bound)
		}
	}
}
