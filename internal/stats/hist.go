package stats

import "math"

// Summary holds the first two moments and extrema of a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// Summarize computes the moments and extrema of xs; xs is not modified.
// Returns the zero Summary for an empty slice.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sum2 float64
	for _, x := range xs {
		sum += x
		sum2 += x * x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	n := float64(len(xs))
	s.Mean = sum / n
	v := sum2/n - s.Mean*s.Mean
	if v < 0 {
		v = 0
	}
	s.Std = math.Sqrt(v)
	return s
}

// Percentile returns the q-quantile (q in [0,1]) of an ascending-sorted
// slice using linear interpolation between closest ranks. It is the
// unit-weight special case of PercentileWeighted; both share one
// closest-ranks definition so histogram quantiles and exact-sample
// quantiles cannot drift apart.
func Percentile(sorted []float64, q float64) float64 {
	return PercentileWeighted(sorted, nil, q)
}

// PercentileWeighted returns the q-quantile (q in [0,1]) of an
// ascending-sorted slice where sorted[i] occurs weights[i] times, using
// linear interpolation between closest ranks — exactly equivalent to
// expanding every value by its weight and calling Percentile on the
// expansion. A nil weights slice means one occurrence per value. This
// is the single quantile implementation in the tree: fixed-bucket
// latency histograms (internal/obs) feed their (value, count) pairs
// through it rather than growing a second interpolation scheme.
func PercentileWeighted(sorted []float64, weights []uint64, q float64) float64 {
	n := uint64(len(sorted))
	if weights != nil {
		n = 0
		for _, w := range weights {
			n += w
		}
	}
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		q = 0
	}
	if q >= 1 {
		q = 1
	}
	pos := q * float64(n-1)
	lo := uint64(pos)
	frac := pos - float64(lo)
	hi := lo
	if frac > 0 && lo+1 < n {
		hi = lo + 1
	}
	v1 := valueAtRank(sorted, weights, lo)
	if hi == lo || frac == 0 {
		return v1
	}
	v2 := valueAtRank(sorted, weights, hi)
	return v1*(1-frac) + v2*frac
}

// valueAtRank resolves the value at a zero-based rank of the weighted
// expansion (rank < sum of weights, checked by the caller).
func valueAtRank(sorted []float64, weights []uint64, rank uint64) float64 {
	if weights == nil {
		return sorted[rank]
	}
	var cum uint64
	for i, w := range weights {
		cum += w
		if rank < cum {
			return sorted[i]
		}
	}
	return sorted[len(sorted)-1]
}

// LogSpace returns n points logarithmically spaced from lo to hi inclusive.
// It panics unless lo, hi > 0 and n >= 2.
func LogSpace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= 0 || n < 2 {
		panic("stats: LogSpace needs positive bounds and n >= 2")
	}
	out := make([]float64, n)
	llo, lhi := math.Log10(lo), math.Log10(hi)
	for i := range out {
		f := float64(i) / float64(n-1)
		out[i] = math.Pow(10, llo+(lhi-llo)*f)
	}
	return out
}
