package ldpc

import (
	"slices"
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

// TestMeasuredLatencyDeterministic: calibration is seeded, so a second
// codec measuring afresh gets exactly the table the first one published
// — the property that keeps latency trajectories reproducible across
// runs, and what lets every codec of a geometry share one table and one
// code structure instead of rebuilding them per drive.
func TestMeasuredLatencyDeterministic(t *testing.T) {
	a := testRig(t)
	b := testRig(t)
	for _, lvl := range []int{0, a.MaxLevel()} {
		shared, fresh := a.measuredAt(lvl), b.calibrate(lvl)
		if !slices.Equal(shared.iters, fresh.iters) {
			t.Fatalf("level %d: a fresh calibration differs from the published one:\n%v\n%v", lvl, fresh.iters, shared.iters)
		}
		if b.measuredAt(lvl) != shared {
			t.Fatalf("level %d: second codec calibrated privately", lvl)
		}
		ca, _ := a.codeAt(lvl)
		cb, _ := b.codeAt(lvl)
		if ca != cb {
			t.Fatalf("level %d: second codec built a private code structure", lvl)
		}
	}
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
