package controller

import (
	"testing"

	"xlnand/internal/bch"
	"xlnand/internal/nand"
)

func newManager(t *testing.T) *ReliabilityManager {
	t.Helper()
	codec, err := bch.NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	return NewReliabilityManager(bch.NewHWCodec(codec, bch.DefaultHWConfig()), 1e-11)
}

func TestSelectTMonotoneInWear(t *testing.T) {
	m := newManager(t)
	prev := 0
	for _, n := range []float64{0, 1e2, 1e3, 1e4, 1e5, 1e6} {
		cur := m.SelectLevel(nand.ISPPSV, n)
		if cur < prev {
			t.Fatalf("t decreased with wear at N=%g: %d < %d", n, cur, prev)
		}
		prev = cur
	}
	if prev < 60 {
		t.Fatalf("EOL SV t=%d, expected ≈ 65", prev)
	}
}

func TestSelectTDVBelowSV(t *testing.T) {
	m := newManager(t)
	for _, n := range []float64{1e3, 1e5, 1e6} {
		sv := m.SelectLevel(nand.ISPPSV, n)
		dv := m.SelectLevel(nand.ISPPDV, n)
		if dv > sv {
			t.Fatalf("N=%g: DV t=%d above SV t=%d", n, dv, sv)
		}
	}
}

func TestSelectTPinsTMaxWhenUnreachable(t *testing.T) {
	m := newManager(t)
	cal := nand.DefaultCalibration()
	cal.RBERCeiling = 0.2 // absurd degradation
	m.cal = cal
	if got := m.SelectLevel(nand.ISPPSV, 1e12); got != 65 {
		t.Fatalf("unreachable target should pin TMax, got %d", got)
	}
}

func TestMeasurementOverridesOptimisticModel(t *testing.T) {
	m := newManager(t)
	// Model says fresh (1e-6) but decodes report ~1e-3 worth of errors.
	n := 32768 + 16*65
	for i := 0; i < 200; i++ {
		m.ObserveDecode(nand.ISPPSV, n, 34)
	}
	est := m.EstimateRBER(nand.ISPPSV, 0)
	if est < 5e-4 {
		t.Fatalf("estimator ignored measured errors: %g", est)
	}
	if got := m.SelectLevel(nand.ISPPSV, 0); got < 50 {
		t.Fatalf("capability %d not raised despite measured degradation", got)
	}
}

func TestModelOverridesOptimisticMeasurement(t *testing.T) {
	// Clean decodes on an aged block must not lower t below the model:
	// the fusion is max(), a self-protective bias.
	m := newManager(t)
	for i := 0; i < 50; i++ {
		m.ObserveDecode(nand.ISPPSV, 33808, 0)
	}
	if got := m.SelectLevel(nand.ISPPSV, 1e6); got < 60 {
		t.Fatalf("clean-read streak lowered EOL capability to %d", got)
	}
}

func TestEWMAWarmsUp(t *testing.T) {
	m := newManager(t)
	sv := algIndex(nand.ISPPSV)
	if m.ewmaWeight[sv] > 0 {
		t.Fatal("estimator claims data before any observation")
	}
	m.ObserveDecode(nand.ISPPSV, 1000, 1)
	got, ok := m.ewmaRBER[sv], m.ewmaWeight[sv] > 0
	if !ok || got != 1e-3 {
		t.Fatalf("first sample not adopted directly: %g, %v", got, ok)
	}
}

func TestProjectedUBERMeetsTargetAtSelectedT(t *testing.T) {
	m := newManager(t)
	for _, n := range []float64{0, 1e4, 1e6} {
		for _, alg := range []nand.Algorithm{nand.ISPPSV, nand.ISPPDV} {
			tc := m.SelectLevel(alg, n)
			got := m.ProjectedUBER(tc, alg, n)
			if got <= m.targetUBER {
				continue
			}
			// At SV end-of-life the safety margin pushes the requirement
			// past TMax; the manager pins t=65 and delivers best effort
			// within a small factor of the target (the same corner where
			// the paper instantiates its worst case).
			if tc != 65 || got > 10*m.targetUBER {
				t.Fatalf("%v N=%g: selected t=%d projects UBER %g above target %g",
					alg, n, tc, got, m.targetUBER)
			}
		}
	}
}

func TestUncorrectableCounter(t *testing.T) {
	m := newManager(t)
	for i := 0; i < 3; i++ {
		m.ObserveUncorrectable()
	}
	if got := m.Uncorrectables(); got != 3 {
		t.Fatalf("uncorrectable count = %d", got)
	}
}
