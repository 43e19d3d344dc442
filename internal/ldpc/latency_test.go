package ldpc

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
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
// for bit, and every codec of the geometry shares them — the property
// that keeps latency trajectories reproducible across runs, and what
// lets every codec of a geometry share one table and one code structure
// instead of rebuilding them per drive. On a mismatch the test prints
// the regenerated literal for latency_tables.go.
func TestMeasuredLatencyDeterministic(t *testing.T) {
	a := testRig(t)
	b := testRig(t)
	if len(pageMeasuredIters) != a.MaxLevel()+1 {
		t.Errorf("committed tables cover %d levels, codec has %d", len(pageMeasuredIters), a.MaxLevel()+1)
	}
	fresh := make([][]float64, a.MaxLevel()+1)
	for lvl := range fresh {
		fresh[lvl] = b.calibrate(lvl).iters
		if lvl >= len(pageMeasuredIters) || !bitsEqual(fresh[lvl], pageMeasuredIters[lvl]) {
			t.Errorf("level %d: a fresh calibration differs from the committed table", lvl)
		}
		shared := a.measuredAt(lvl)
		if lvl < len(pageMeasuredIters) && !bitsEqual(shared.iters, pageMeasuredIters[lvl]) {
			t.Errorf("level %d: the published table is not the committed one", lvl)
		}
		if b.measuredAt(lvl) != shared {
			t.Errorf("level %d: second codec calibrated privately", lvl)
		}
		ca, _ := a.codeAt(lvl)
		cb, _ := b.codeAt(lvl)
		if ca != cb {
			t.Errorf("level %d: second codec built a private code structure", lvl)
		}
	}
	if t.Failed() {
		t.Logf("regenerated literal for latency_tables.go:\n%s", itersLiteral(fresh))
	}
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
