package bch

import (
	"fmt"
	"math"
	"testing"
)

func TestUBERMatchesDirectFormulaModerate(t *testing.T) {
	// For moderate values, compare against a directly computed Eq. (1).
	n, tc, rber := 1000, 2, 1e-3
	// C(1000,3) * p^3 * (1-p)^997 / 1000
	c3 := float64(1000*999*998) / 6
	want := c3 * math.Pow(rber, 3) * math.Pow(1-rber, 997) / 1000
	if got := UBER(n, tc, rber); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("UBER = %g, want %g", got, want)
	}
}

func TestUBEREdgeCases(t *testing.T) {
	if UBER(100, 3, 0) != 0 {
		t.Fatal("UBER at RBER=0 should be 0")
	}
	if !math.IsInf(LogUBER(100, 3, 0), -1) {
		t.Fatal("LogUBER at RBER=0 should be -inf")
	}
	if v := UBER(100, 3, 1); math.IsNaN(v) {
		t.Fatal("UBER at RBER=1 is NaN")
	}
}

func TestUBERMonotonicInRBERSparseRegime(t *testing.T) {
	// Eq. (1) is monotone in RBER while n·RBER << t (its valid regime).
	n, tc := 33808, 10
	prev := math.Inf(-1)
	for _, r := range []float64{1e-8, 1e-7, 1e-6, 1e-5} {
		cur := LogUBER(n, tc, r)
		if cur <= prev {
			t.Fatalf("UBER not increasing in RBER at %g", r)
		}
		prev = cur
	}
}

func TestUBERTailMonotonicInRBEREverywhere(t *testing.T) {
	// The tail variant is monotone even deep into the dense regime where
	// the dominant-term formula turns over.
	n, tc := 33808, 10
	prev := math.Inf(-1)
	for _, r := range []float64{1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 1e-1} {
		cur := LogUBERTail(n, tc, r)
		if cur <= prev {
			t.Fatalf("tail UBER not increasing in RBER at %g", r)
		}
		prev = cur
	}
}

func TestUBERTailMonotonicInT(t *testing.T) {
	rber := 1e-4
	prev := math.Inf(1)
	for tc := 1; tc <= 40; tc++ {
		n := 32768 + 16*tc
		cur := LogUBERTail(n, tc, rber)
		if cur >= prev {
			t.Fatalf("tail UBER not decreasing in t at t=%d", tc)
		}
		prev = cur
	}
}

// TestPaperAnchorTMin reproduces the paper's §6.2 statement: at the
// best-case RBER of 1e-6, t = 3 meets the 1e-11 UBER target (and t = 2
// does not).
func TestPaperAnchorTMin(t *testing.T) {
	const target = 1e-11
	got, err := RequiredT(16, 32768, 1e-6, target, 65)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("RequiredT(RBER=1e-6) = %d, paper says 3", got)
	}
}

// TestPaperAnchorTMaxSV: at the end-of-life ISPP-SV RBER of 1e-3 the code
// needs t = 65 (the reason the paper instantiates the architecture for
// exactly that worst case).
func TestPaperAnchorTMaxSV(t *testing.T) {
	const target = 1e-11
	got, err := RequiredT(16, 32768, 1e-3, target, 80)
	if err != nil {
		t.Fatal(err)
	}
	if got < 60 || got > 68 {
		t.Fatalf("RequiredT(RBER=1e-3) = %d, paper says 65 (allowing small model slack)", got)
	}
}

// TestPaperAnchorTMaxDV: at the DV end-of-life RBER (about an order of
// magnitude better than SV), the requirement collapses to t ≈ 14.
func TestPaperAnchorTMaxDV(t *testing.T) {
	const target = 1e-11
	got, err := RequiredT(16, 32768, 8.4e-5, target, 65)
	if err != nil {
		t.Fatal(err)
	}
	if got < 12 || got > 16 {
		t.Fatalf("RequiredT(RBER=8.4e-5) = %d, paper says 14 (allowing small model slack)", got)
	}
}

func TestPaperAnchorFig7Intermediate(t *testing.T) {
	// Fig. 7 labels t = 4 around RBER = 2.5e-6.
	got, err := RequiredT(16, 32768, 2.5e-6, 1e-11, 65)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("RequiredT(RBER=2.5e-6) = %d, paper Fig. 7 says 4", got)
	}
}

func TestRequiredTErrors(t *testing.T) {
	if _, err := RequiredT(16, 32768, 0.3, 1e-11, 65); err == nil {
		t.Fatal("absurd RBER should be unreachable")
	}
	if _, err := RequiredT(16, 32768, 1e-6, 0, 65); err == nil {
		t.Fatal("target 0 accepted")
	}
	if _, err := RequiredT(16, 32768, 1e-6, 1, 65); err == nil {
		t.Fatal("target 1 accepted")
	}
}

// requiredTScan is the reference for RequiredT's bisection: the walk over
// t = 1..tmax it replaced, stopping at the first t that meets the target.
func requiredTScan(m, k int, rber, target float64, tmax int) (int, error) {
	logTarget := math.Log(target)
	for t := 1; t <= tmax; t++ {
		n := k + m*t
		if n > (1<<uint(m))-1 {
			return 0, fmt.Errorf("bch: t=%d no longer fits GF(2^%d) before meeting target", t, m)
		}
		if LogUBERTail(n, t, rber) <= logTarget {
			return t, nil
		}
	}
	return 0, fmt.Errorf("bch: target UBER %.3g unreachable at RBER %.3g within tmax=%d", target, rber, tmax)
}

// TestRequiredTMatchesScan pins the bisection to the scan, errors
// included, over RBER 1e-8..2e-2 (24 points a decade) at the targets the
// repository uses, on the page geometry (where tmax ends the search at
// high RBER) and on one where the field does.
func TestRequiredTMatchesScan(t *testing.T) {
	geoms := []struct{ m, k, tmax int }{
		{16, 32768, 65},
		{16, 32768, 80},
		{13, 8000, 65}, // GF(2^13) has no room past t = 14
	}
	for _, g := range geoms {
		for _, target := range []float64{1e-11, 1e-13, 1e-16} {
			for e := -8.0; e <= math.Log10(2e-2); e += 1.0 / 24 {
				rber := math.Pow(10, e)
				got, err := RequiredT(g.m, g.k, rber, target, g.tmax)
				want, wantErr := requiredTScan(g.m, g.k, rber, target, g.tmax)
				if got != want || (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("m=%d k=%d tmax=%d rber=%g target=%g: bisection (%d, %v), scan (%d, %v)",
						g.m, g.k, g.tmax, rber, target, got, err, want, wantErr)
				}
			}
		}
	}
}

func TestRequiredTMonotoneInRBER(t *testing.T) {
	prev := 0
	for _, r := range []float64{1e-7, 1e-6, 1e-5, 1e-4, 5e-4, 1e-3} {
		tc, err := RequiredT(16, 32768, r, 1e-11, 80)
		if err != nil {
			t.Fatal(err)
		}
		if tc < prev {
			t.Fatalf("required t decreased to %d at RBER %g", tc, r)
		}
		prev = tc
	}
}

func TestUBERTailUpperBoundsEq1(t *testing.T) {
	for _, rber := range []float64{1e-6, 1e-5, 1e-4} {
		n, tc := 33808, 20
		if UBERTail(n, tc, rber) < UBER(n, tc, rber) {
			t.Fatalf("tail UBER below dominant-term UBER at %g", rber)
		}
		// In the sparse regime they agree closely.
		ratio := UBERTail(n, tc, rber) / UBER(n, tc, rber)
		if ratio > 1.5 {
			t.Fatalf("tail/dominant ratio %v unexpectedly large at RBER %g", ratio, rber)
		}
	}
}

func TestLog10UBERUnits(t *testing.T) {
	// The paper's t=3 @ 1e-6 point sits between 1e-12 and 1e-11 on the
	// log10 axis of Figs. 7 and 10.
	v := LogUBER(33808, 3, 1e-6) / math.Ln10
	if v < -13 || v > -11 {
		t.Fatalf("log10 UBER at paper anchor = %v, want in [-13, -11]", v)
	}
}
