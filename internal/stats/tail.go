package stats

import "math"

// LogBinomCoef returns ln C(n, k) using Lgamma, valid for n up to millions
// without overflow.
func LogBinomCoef(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	ln1, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return ln1 - lk - lnk
}

// LogBinomPMF returns ln of the binomial probability mass
// C(n,k) p^k (1-p)^(n-k), computed fully in the log domain so values far
// below the float64 underflow threshold are representable.
func LogBinomPMF(n, k int, p float64) float64 {
	if p <= 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	if p >= 1 {
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	return LogBinomCoef(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// LogBinomTail returns ln P[X >= k] for X ~ Binomial(n, p), summed in the
// log domain starting at the dominant term. The sum converges after a few
// dozen terms because successive terms decay geometrically in the regime
// n·p << k used here.
func LogBinomTail(n, k int, p float64) float64 {
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
	for i := k + 1; i <= n; i++ {
		// ratio PMF(i)/PMF(i-1) = (n-i+1)/i * p/(1-p)
		ratio := float64(n-i+1) / float64(i) * p / (1 - p)
		rel *= ratio
		sum += rel
		// A ratio that underflows to 0 zeroes rel, so this test also
		// ends the series once the terms have left float64 range.
		if rel < 1e-18*sum {
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
