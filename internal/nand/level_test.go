package nand

import (
	"bytes"
	"testing"
	"testing/quick"

	"xlnand/internal/stats"
)

func TestGrayMappingIsBijective(t *testing.T) {
	seen := map[uint8]bool{}
	for l := L0; l < numLevels; l++ {
		u, lo := l.Bits()
		key := u<<1 | lo
		if seen[key] {
			t.Fatalf("bit pattern %02b reused", key)
		}
		seen[key] = true
		if got := LevelFromBits(u, lo); got != l {
			t.Fatalf("LevelFromBits(Bits(%v)) = %v", l, got)
		}
	}
}

func TestGrayAdjacency(t *testing.T) {
	// Adjacent levels must differ in exactly one bit — the property that
	// makes a one-level misread cost one bit error.
	for l := L0; l < L3; l++ {
		if d := BitErrors(l, l+1); d != 1 {
			t.Fatalf("levels %v and %v differ in %d bits, want 1", l, l+1, d)
		}
	}
}

func TestBitErrorsProperties(t *testing.T) {
	for a := L0; a < numLevels; a++ {
		if BitErrors(a, a) != 0 {
			t.Fatalf("BitErrors(%v,%v) != 0", a, a)
		}
		for b := L0; b < numLevels; b++ {
			if BitErrors(a, b) != BitErrors(b, a) {
				t.Fatalf("BitErrors not symmetric for %v,%v", a, b)
			}
			if d := BitErrors(a, b); d < 0 || d > 2 {
				t.Fatalf("BitErrors(%v,%v) = %d out of range", a, b, d)
			}
		}
	}
}

func TestTargetLevelsRoundTrip(t *testing.T) {
	r := stats.NewRNG(200)
	for trial := 0; trial < 100; trial++ {
		data := make([]byte, 1+r.Intn(64))
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		levels := TargetLevels(data)
		if len(levels) != len(data)*4 {
			t.Fatalf("%d levels for %d bytes", len(levels), len(data))
		}
		back := LevelsToBytesInto(make([]byte, (len(levels)+3)/4), levels)
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip failed: %x -> %x", data, back)
		}
	}
}

func TestTargetLevelsQuickRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		return bytes.Equal(LevelsToBytesInto(make([]byte, len(data)), TargetLevels(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyVTH(t *testing.T) {
	cal := DefaultCalibration()
	cases := []struct {
		vth  float64
		want Level
	}{
		{-3.0, L0},
		{cal.Read[0] - 0.01, L0},
		{cal.Read[0] + 0.01, L1},
		{cal.Read[1] - 0.01, L1},
		{cal.Read[1] + 0.01, L2},
		{cal.Read[2] - 0.01, L2},
		{cal.Read[2] + 0.01, L3},
		{5.0, L3},
	}
	for _, c := range cases {
		if got := cal.ClassifyVTHShifted(c.vth, ReadOffsets{}); got != c.want {
			t.Errorf("ClassifyVTHShifted(%v, nominal) = %v, want %v", c.vth, got, c.want)
		}
	}
}

func TestVerifyTarget(t *testing.T) {
	cal := DefaultCalibration()
	for i, l := range []Level{L1, L2, L3} {
		if got := cal.VerifyTarget(l); got != cal.VFY[i] {
			t.Fatalf("VerifyTarget(%v) = %v", l, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("VerifyTarget(L0) did not panic")
		}
	}()
	cal.VerifyTarget(L0)
}

func TestLevelGeometrySane(t *testing.T) {
	// R1 < VFY1 < R2 < VFY2 < R3 < VFY3 < OP: each read level must sit
	// below the verify level of the distribution above it.
	cal := DefaultCalibration()
	seq := []float64{cal.Read[0], cal.VFY[0], cal.Read[1], cal.VFY[1], cal.Read[2], cal.VFY[2], cal.OverProg}
	for i := 1; i < len(seq); i++ {
		if seq[i] <= seq[i-1] {
			t.Fatalf("level geometry not monotone at index %d: %v", i, seq)
		}
	}
	if cal.EraseMu >= cal.Read[0] {
		t.Fatal("erased distribution mean above R1")
	}
}

func TestAlgorithmString(t *testing.T) {
	if ISPPSV.String() != "ISPP-SV" || ISPPDV.String() != "ISPP-DV" {
		t.Fatal("algorithm names drifted")
	}
	if Algorithm(9).String() != "ISPP-?" {
		t.Fatal("unknown algorithm should render as ISPP-?")
	}
}
