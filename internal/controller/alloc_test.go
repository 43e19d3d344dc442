package controller

import "testing"

// TestReadPageRetryIntoZeroAlloc pins the controller's steady-state
// read path at zero allocations per operation: with a caller-provided
// destination the sense, transfer and decode all run in reused scratch
// (device read buffer, BCH remainder registers, result data aliasing
// dst). Occasional decoder pool refills after a GC are tolerated by the
// sub-one average, not by rounding up the contract.
func TestReadPageRetryIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	c := newRig(t, true)
	data := randPage(9)
	if _, err := c.WritePage(0, 0, data); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(data))
	// Warm every lazily-built structure (divider tables, syndrome
	// scratch, pooled decode registers) before counting.
	for i := 0; i < 4; i++ {
		if _, err := c.ReadPageRetryInto(0, 0, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := c.ReadPageRetryInto(0, 0, 0, dst); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state read allocates %.2f/op, want 0", avg)
	}
}

// TestSensedReadZeroAlloc pins the end-of-life read, where every sense
// carries tens of flips and the codec decodes from their positions:
// the device's flip list and the decoder's scratch are reused, so the
// read allocates nothing once warm.
func TestSensedReadZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	c := newRig(t, true)
	if err := c.Device().SetCycles(0, 1e6); err != nil {
		t.Fatal(err)
	}
	data := randPage(9)
	if _, err := c.WritePage(0, 0, data); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(data))
	for i := 0; i < 4; i++ {
		if _, err := c.ReadPageRetryInto(0, 0, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
	if _, flips := c.Device().LastSense(); flips == 0 {
		t.Fatal("end-of-life sense injected no errors; the test would only see clean hits")
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := c.ReadPageRetryInto(0, 0, 0, dst); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state end-of-life read allocates %.2f/op, want 0", avg)
	}
}
