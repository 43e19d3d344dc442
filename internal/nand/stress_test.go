package nand

import (
	"testing"
	"testing/quick"
)

func TestStressedRBERReducesToBase(t *testing.T) {
	cal := DefaultCalibration()
	s := DefaultStressConfig()
	for _, alg := range []Algorithm{ISPPSV, ISPPDV} {
		for _, n := range []float64{0, 1e3, 1e6} {
			base := cal.RBER(alg, n)
			got := cal.StressedRBER(s, alg, n, 0, 0)
			if got != base {
				t.Fatalf("%v N=%g: unstressed RBER %g != base %g", alg, n, got, base)
			}
		}
	}
}

func TestStressedRBERMonotoneInReads(t *testing.T) {
	cal := DefaultCalibration()
	s := DefaultStressConfig()
	prev := 0.0
	for _, reads := range []float64{0, 1e3, 1e4, 1e5, 1e6} {
		cur := cal.StressedRBER(s, ISPPSV, 1e4, reads, 0)
		if cur < prev {
			t.Fatalf("RBER decreased with read count at %g", reads)
		}
		prev = cur
	}
	// A heavily disturbed block must be clearly worse than undisturbed.
	if prev < 1.2*cal.StressedRBER(s, ISPPSV, 1e4, 0, 0) {
		t.Fatal("read disturb effect too weak to matter")
	}
}

func TestStressedRBERMonotoneInRetention(t *testing.T) {
	cal := DefaultCalibration()
	s := DefaultStressConfig()
	prev := 0.0
	for _, hours := range []float64{0, 10, 100, 1e3, 1e4} {
		cur := cal.StressedRBER(s, ISPPSV, 1e4, 0, hours)
		if cur < prev {
			t.Fatalf("RBER decreased with retention at %g h", hours)
		}
		prev = cur
	}
}

func TestRetentionWorseOnWornDevice(t *testing.T) {
	// Aged oxide leaks faster: the same bake must cost more RBER
	// (relatively) at high cycle counts.
	cal := DefaultCalibration()
	s := DefaultStressConfig()
	relFresh := cal.StressedRBER(s, ISPPSV, 100, 0, 1e4) / cal.RBER(ISPPSV, 100)
	relWorn := cal.StressedRBER(s, ISPPSV, 1e5, 0, 1e4) / cal.RBER(ISPPSV, 1e5)
	if relWorn <= relFresh {
		t.Fatalf("retention relative penalty fresh %v >= worn %v", relFresh, relWorn)
	}
}

func TestStressedRBERCeiling(t *testing.T) {
	cal := DefaultCalibration()
	s := DefaultStressConfig()
	if got := cal.StressedRBER(s, ISPPSV, 1e6, 1e12, 1e9); got > cal.RBERCeiling {
		t.Fatalf("stressed RBER %g above ceiling", got)
	}
}

func TestStressedRBERNegativeInputsClamped(t *testing.T) {
	cal := DefaultCalibration()
	s := DefaultStressConfig()
	base := cal.RBER(ISPPSV, 1e3)
	if got := cal.StressedRBER(s, ISPPSV, 1e3, -5, -7); got != base {
		t.Fatalf("negative stress inputs not clamped: %g vs %g", got, base)
	}
}

func TestStressedRBERQuickSanity(t *testing.T) {
	cal := DefaultCalibration()
	s := DefaultStressConfig()
	f := func(readsRaw, hoursRaw uint32) bool {
		reads := float64(readsRaw)
		hours := float64(hoursRaw % 100000)
		got := cal.StressedRBER(s, ISPPDV, 1e4, reads, hours)
		return got >= cal.RBER(ISPPDV, 1e4) && got <= cal.RBERCeiling
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceReadDisturbAccumulatesAndErasesHeal(t *testing.T) {
	cal := DefaultCalibration()
	d := NewDevice(cal, 1, 3)
	if _, err := d.Program(0, 0, make([]byte, 64), nil, ISPPSV); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := readAt(d, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	reads, err := d.BlockReads(0)
	if err != nil || reads != 10 {
		t.Fatalf("block reads = %v, %v", reads, err)
	}
	if err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	if reads, _ := d.BlockReads(0); reads != 0 {
		t.Fatalf("erase did not heal read disturb: %v", reads)
	}
	if _, err := d.BlockReads(5); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}

func TestDeviceRetentionClock(t *testing.T) {
	cal := DefaultCalibration()
	d := NewDevice(cal, 2, 4)
	d.AdvanceTime(-5) // ignored
	if d.clockHours != 0 {
		t.Fatal("negative time advanced the clock")
	}
	if err := d.SetCycles(0, 1e5); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	if _, err := d.Program(0, 0, data, nil, ISPPSV); err != nil {
		t.Fatal(err)
	}
	freshFlips := 0
	for i := 0; i < 10; i++ {
		rd, _, err := readAt(d, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		freshFlips += bitDiff(rd, data)
	}
	d.AdvanceTime(5e4) // ~6 year bake
	bakedFlips := 0
	for i := 0; i < 10; i++ {
		rd, _, err := readAt(d, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		bakedFlips += bitDiff(rd, data)
	}
	if bakedFlips <= freshFlips {
		t.Fatalf("retention bake did not increase errors: %d vs %d", bakedFlips, freshFlips)
	}
	// A page written after the bake carries no retention age.
	if _, err := d.Program(0, 1, data, nil, ISPPSV); err != nil {
		t.Fatal(err)
	}
	newFlips := 0
	for i := 0; i < 10; i++ {
		rd, _, err := readAt(d, 0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		newFlips += bitDiff(rd, data)
	}
	if newFlips >= bakedFlips {
		t.Fatalf("fresh page (%d flips) as bad as baked page (%d)", newFlips, bakedFlips)
	}
}
