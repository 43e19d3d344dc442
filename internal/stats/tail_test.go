package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approxEq(a, b, rel float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
}

func TestLogBinomCoefSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, math.Log(10)},
		{10, 0, 0},
		{10, 10, 0},
		{52, 5, math.Log(2598960)},
	}
	for _, c := range cases {
		if got := LogBinomCoef(c.n, c.k); !approxEq(got, c.want, 1e-10) {
			t.Errorf("LogBinomCoef(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestLogBinomCoefOutOfRange(t *testing.T) {
	if !math.IsInf(LogBinomCoef(5, 6), -1) {
		t.Error("C(5,6) should be log(0) = -inf")
	}
	if !math.IsInf(LogBinomCoef(5, -1), -1) {
		t.Error("C(5,-1) should be log(0) = -inf")
	}
}

func TestLogBinomCoefSymmetry(t *testing.T) {
	f := func(nRaw, kRaw uint16) bool {
		n := int(nRaw%40000) + 1
		k := int(kRaw) % (n + 1)
		return approxEq(LogBinomCoef(n, k), LogBinomCoef(n, n-k), 1e-9) ||
			LogBinomCoef(n, k) == LogBinomCoef(n, n-k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogBinomPMFNormalization(t *testing.T) {
	// Sum of PMF over k must be 1 for a small n.
	n, p := 40, 0.13
	sum := 0.0
	for k := 0; k <= n; k++ {
		sum += math.Exp(LogBinomPMF(n, k, p))
	}
	if !approxEq(sum, 1, 1e-10) {
		t.Fatalf("PMF sums to %v, want 1", sum)
	}
}

func TestLogBinomPMFEdges(t *testing.T) {
	if got := LogBinomPMF(10, 0, 0); got != 0 {
		t.Errorf("PMF(10,0,p=0) log = %v, want 0", got)
	}
	if !math.IsInf(LogBinomPMF(10, 3, 0), -1) {
		t.Error("PMF(10,3,p=0) should be 0")
	}
	if got := LogBinomPMF(10, 10, 1); got != 0 {
		t.Errorf("PMF(10,10,p=1) log = %v, want 0", got)
	}
	if !math.IsInf(LogBinomPMF(10, 9, 1), -1) {
		t.Error("PMF(10,9,p=1) should be 0")
	}
}

func TestLogBinomTailMatchesDirectSum(t *testing.T) {
	n, p := 200, 0.02
	for k := 0; k <= 20; k++ {
		direct := 0.0
		for i := k; i <= n; i++ {
			direct += math.Exp(LogBinomPMF(n, i, p))
		}
		got := math.Exp(LogBinomTail(n, k, p))
		if !approxEq(got, direct, 1e-9) {
			t.Errorf("tail(n=%d,k=%d) = %v, want %v", n, k, got, direct)
		}
	}
}

func TestLogBinomTailDeep(t *testing.T) {
	// Deep tail: n=33808, p=1e-6, k=4. Expected λ=0.033808;
	// P[X>=4] ≈ λ^4/4! (1 + O(λ)).
	n, p, k := 33808, 1e-6, 4
	lam := float64(n) * p
	want := math.Pow(lam, 4) / 24 * math.Exp(-lam)
	got := math.Exp(LogBinomTail(n, k, p))
	if !approxEq(got, want, 0.02) {
		t.Fatalf("deep tail = %v, want ~%v", got, want)
	}
}

func TestLogBinomTailMonotoneInK(t *testing.T) {
	n, p := 1000, 0.01
	prev := math.Inf(1)
	for k := 0; k <= 50; k++ {
		cur := LogBinomTail(n, k, p)
		if cur > prev {
			t.Fatalf("tail increased at k=%d: %v > %v", k, cur, prev)
		}
		prev = cur
	}
}

// logBinomTailReference is LogBinomTail as it was when every series
// term also accumulated its logarithm li, and the loop broke on
// li == -Inf as well as on the relative-size test. It is the oracle for
// TestLogBinomTailMatchesReference.
func logBinomTailReference(n, k int, p float64) float64 {
	if k <= 0 {
		return 0 // P >= 1e0
	}
	if k > n {
		return math.Inf(-1)
	}
	// Accumulate terms relative to the first (largest in our regime).
	l0 := LogBinomPMF(n, k, p)
	if math.IsInf(l0, -1) {
		return l0
	}
	sum := 1.0
	rel := 1.0
	li := l0
	for i := k + 1; i <= n; i++ {
		// ratio PMF(i)/PMF(i-1) = (n-i+1)/i * p/(1-p)
		ratio := float64(n-i+1) / float64(i) * p / (1 - p)
		rel *= ratio
		li += math.Log(ratio)
		sum += rel
		if rel < 1e-18*sum || math.IsInf(li, -1) {
			break
		}
	}
	// Far past the cliff (k << n·p) the relative terms grow without
	// bound and the accumulator can overflow — but the tail is a
	// probability: its log never exceeds 0.
	if v := l0 + math.Log(sum); v < 0 {
		return v
	}
	return 0
}

// TestLogBinomTailMatchesReference: dropping li changed no result. The
// tail must equal the reference bit for bit (NaN matching NaN) over the
// codeword lengths the codecs use, thresholds at and past both ends,
// and error rates from zero and the smallest subnormal through a
// log-spaced sweep to one and NaN.
func TestLogBinomTailMatchesReference(t *testing.T) {
	ns := []int{1, 2, 3, 7, 10, 64, 255, 1000}
	for tc := 1; tc <= 65; tc++ {
		ns = append(ns, 32768+16*tc) // BCH page codeword: k + m·t
	}
	for _, parity := range []int{512, 768, 1024, 1280, 1536, 1728} {
		ns = append(ns, 32768+64+parity) // LDPC page codeword: K + CRC + parity
	}
	ps := []float64{0, 5e-324}
	for e := -12.0; e <= math.Log10(0.5); e += 0.5 {
		ps = append(ps, math.Pow(10, e))
	}
	ps = append(ps, 0.5, 1-1e-15, 1, math.NaN())
	for _, n := range ns {
		for _, k := range []int{0, 1, min(66, n), n / 2, n, n + 1} {
			for _, p := range ps {
				got, want := LogBinomTail(n, k, p), logBinomTailReference(n, k, p)
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Errorf("LogBinomTail(%d, %d, %g) = %v, reference %v", n, k, p, got, want)
				}
			}
		}
	}
}
