package bch

import (
	"fmt"
	"math"
	"sort"

	"xlnand/internal/stats"
)

// UBER computes the paper's Eq. (1):
//
//	UBER = C(n, t+1) · RBER^(t+1) · (1-RBER)^(n-(t+1)) / n
//
// i.e. the probability of the dominant uncorrectable event (exactly t+1
// raw errors in an n-bit codeword) normalised per bit. Computation is in
// the log domain so results far below float64's underflow threshold are
// still exact; values smaller than ~1e-300 are returned as from LogUBER.
func UBER(n, t int, rber float64) float64 {
	return math.Exp(LogUBER(n, t, rber))
}

// LogUBER returns ln(UBER) per Eq. (1). RBER must lie in (0, 1); rber = 0
// yields -Inf.
func LogUBER(n, t int, rber float64) float64 {
	if rber <= 0 {
		return math.Inf(-1)
	}
	if rber >= 1 {
		rber = 1 - 1e-15
	}
	return stats.LogBinomPMF(n, t+1, rber) - math.Log(float64(n))
}

// UBERTail is a stricter variant accumulating every uncorrectable weight
// (>= t+1 errors) rather than only the dominant term; it upper-bounds
// Eq. (1) and converges to it when n·RBER << t. Unlike the dominant-term
// formula it is monotone in RBER and in t over the whole parameter space,
// which makes it the right objective for threshold solving.
func UBERTail(n, t int, rber float64) float64 {
	return math.Exp(LogUBERTail(n, t, rber))
}

// LogUBERTail returns ln(UBERTail).
func LogUBERTail(n, t int, rber float64) float64 {
	if rber <= 0 {
		return math.Inf(-1)
	}
	if rber >= 1 {
		rber = 1 - 1e-15
	}
	return stats.LogBinomTail(n, t+1, rber) - math.Log(float64(n))
}

// RequiredT returns the minimum correction capability t such that a BCH
// code over GF(2^m) protecting k message bits at raw bit error rate rber
// achieves UBER <= target. The codeword length grows with t (n = k + m·t),
// which the search accounts for. Returns an error if even tmax fails.
//
// This is the sizing computation behind Fig. 7 ("t = 3 is sufficient" ...
// "grows to t = 65") and behind the reliability manager's runtime
// reconfiguration. It sizes against the full uncorrectable tail
// (UBERTail), which matches Eq. (1) in the sparse regime the paper plots
// but stays monotone — and therefore solvable — everywhere.
func RequiredT(m, k int, rber, target float64, tmax int) (int, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("bch: UBER target %g outside (0,1)", target)
	}
	logTarget := math.Log(target)
	// The tail is monotone in t (see UBERTail), so bisect for the least t
	// that meets the target among those whose codeword fits the field.
	fit := min(tmax, max((1<<uint(m))-1-k, 0)/m)
	t := 1 + sort.Search(fit, func(i int) bool {
		return LogUBERTail(k+m*(i+1), i+1, rber) <= logTarget
	})
	switch {
	case t <= fit:
		return t, nil
	case fit < tmax:
		return 0, fmt.Errorf("bch: t=%d no longer fits GF(2^%d) before meeting target", fit+1, m)
	}
	return 0, fmt.Errorf("bch: target UBER %.3g unreachable at RBER %.3g within tmax=%d", target, rber, tmax)
}
