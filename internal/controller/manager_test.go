package controller

import (
	"math"
	"sync"
	"testing"

	"xlnand/internal/bch"
	"xlnand/internal/ecc"
	"xlnand/internal/ldpc"
	"xlnand/internal/nand"
	"xlnand/internal/stats"
)

func newManager(t *testing.T) *ReliabilityManager {
	t.Helper()
	codec, err := bch.NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	return NewReliabilityManager(codec, nand.DefaultCalibration(), 1e-11)
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
			got := m.codec.ProjectedUBER(tc, m.EstimateRBER(alg, n))
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

// directLevel is SelectLevel without its memo: the clamped level the
// codec requires at the manager's current estimate and margin, or the
// strongest level when the target is out of reach.
func directLevel(m *ReliabilityManager, alg nand.Algorithm, cycles float64) int {
	lvl, err := m.codec.RequiredLevel(m.EstimateRBER(alg, cycles)*m.SafetyMargin, m.targetUBER)
	if err != nil {
		return m.codec.MaxLevel()
	}
	return m.codec.ClampLevel(lvl)
}

// TestManagerUsesDeviceCalibration: the controller's manager sizes the
// code from the RBER model the device actually runs on, not from the
// default calibration.
func TestManagerUsesDeviceCalibration(t *testing.T) {
	cal := nand.DefaultCalibration()
	cal.RBERFresh *= 30
	dev := nand.NewDevice(cal, 1, 1)
	codec, err := bch.NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(dev, codec, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := c.Manager()
	for _, alg := range []nand.Algorithm{nand.ISPPSV, nand.ISPPDV} {
		for _, cycles := range []float64{0, 1e3, 1e5} {
			want, err := m.codec.RequiredLevel(cal.RBER(alg, cycles)*m.SafetyMargin, m.targetUBER)
			if err != nil {
				want = m.codec.MaxLevel()
			}
			want = m.codec.ClampLevel(want)
			if got := m.SelectLevel(alg, cycles); got != want {
				t.Errorf("%v at %g cycles: level %d, the device's own RBER needs %d", alg, cycles, got, want)
			}
		}
	}
}

// memoManagers returns one BCH and one LDPC page manager.
func memoManagers(t *testing.T) []*ReliabilityManager {
	t.Helper()
	bc, err := bch.NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	lc, err := ldpc.NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	var ms []*ReliabilityManager
	for _, codec := range []ecc.Codec{bc, lc} {
		ms = append(ms, NewReliabilityManager(codec, nand.DefaultCalibration(), 1e-11))
	}
	return ms
}

// TestSelectLevelMemoExact drives each family's manager through a
// seeded interleaving of decode feedback, capability selections at
// repeating and fresh wear points (NaN and an out-of-reach end of life
// included), both algorithms, and safety-margin changes. Every
// selection must equal the solver run directly, memo hit or not.
func TestSelectLevelMemoExact(t *testing.T) {
	algs := []nand.Algorithm{nand.ISPPSV, nand.ISPPDV}
	cycles := []float64{0, 10, 1e3, 3e4, 1e5, 1e6, 1e8, math.NaN()}
	margins := []float64{1, 1.3, 1.7, 3}
	for _, m := range memoManagers(t) {
		rng := stats.NewRNG(7)
		var hits, misses int
		for step := 0; step < 3000; step++ {
			alg := algs[rng.Intn(len(algs))]
			switch r := rng.Intn(10); {
			case r < 3:
				m.ObserveDecode(alg, 33808, rng.Intn(40))
			case r < 4:
				m.SafetyMargin = margins[rng.Intn(len(margins))]
			default:
				n := cycles[rng.Intn(len(cycles))]
				if m.memo[algIndex(alg)].rber == m.EstimateRBER(alg, n)*m.SafetyMargin {
					hits++
				} else {
					misses++
				}
				if got, want := m.SelectLevel(alg, n), directLevel(m, alg, n); got != want {
					t.Fatalf("%v step %d: %v at %g cycles: memoised level %d, solver %d",
						m.codec.Family(), step, alg, n, got, want)
				}
			}
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("%v: %d memo hits, %d misses: the interleaving exercises only one path", m.codec.Family(), hits, misses)
		}
	}
}

// TestSelectLevelMemoConcurrent: selections and decode feedback from
// many goroutines share one memo. Run under -race it checks the memo is
// only touched under the manager's lock; in any mode every selection is
// a valid level and, once the feedback stops, the memo agrees with the
// solver.
func TestSelectLevelMemoConcurrent(t *testing.T) {
	for _, m := range memoManagers(t) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := stats.NewRNG(uint64(g))
				for i := 0; i < 300; i++ {
					alg := nand.Algorithm(rng.Intn(2))
					if g%2 == 0 {
						m.ObserveDecode(alg, 33808, rng.Intn(40))
						continue
					}
					if lvl := m.SelectLevel(alg, float64(rng.Intn(4))*1e3); lvl < m.codec.MinLevel() || lvl > m.codec.MaxLevel() {
						t.Errorf("level %d outside [%d, %d]", lvl, m.codec.MinLevel(), m.codec.MaxLevel())
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for _, alg := range []nand.Algorithm{nand.ISPPSV, nand.ISPPDV} {
			if got, want := m.SelectLevel(alg, 1e3), directLevel(m, alg, 1e3); got != want {
				t.Fatalf("%v %v: level %d after the concurrent phase, solver %d", m.codec.Family(), alg, got, want)
			}
		}
	}
}
