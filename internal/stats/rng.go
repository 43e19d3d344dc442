// Package stats provides the deterministic statistics substrate used by
// every simulation layer of the xlnand library: a seedable, reproducible
// random number generator, Gaussian and binomial sampling, tail-probability
// math (Q-function), log-domain binomial terms for extreme-probability
// arithmetic (UBER down to 1e-30 and beyond), and histogram utilities.
//
// Everything in this package is pure computation with no global state; all
// randomness flows through an explicit *RNG so that simulations are
// reproducible bit-for-bit given a seed.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on the
// xoshiro256** algorithm (Blackman & Vigna). It is not safe for concurrent
// use; create one RNG per goroutine (use Split for independent streams).
//
// The zero value is not usable; construct with NewRNG.
type RNG struct {
	s [4]uint64
	// cached second Gaussian variate from the Box-Muller pair
	gauss    float64
	hasGauss bool
}

// splitmix64 is used to seed the xoshiro state from a single 64-bit seed,
// as recommended by the xoshiro authors.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given 64-bit seed. Two RNGs
// built from the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// Avoid the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent RNG stream from r. The derived stream is
// decorrelated from the parent by hashing a draw from the parent through
// splitmix64, so parent and child may be used side by side.
func (r *RNG) Split() *RNG {
	seed := r.Uint64()
	return NewRNG(seed ^ 0xa5a5a5a55a5a5a5a)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		thresh := (-bound) % bound
		for lo < thresh {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Norm returns a standard-normal variate via the Box-Muller transform.
// Variates are produced in pairs; the second is cached.
func (r *RNG) Norm() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// NormMuSigma returns a Gaussian variate with the given mean and standard
// deviation.
func (r *RNG) NormMuSigma(mu, sigma float64) float64 {
	return mu + sigma*r.Norm()
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Binomial draws from Binomial(n, p). For small n·p it uses direct
// Bernoulli summation via geometric skipping (first-success counting);
// for large n·p it uses a Gaussian approximation with continuity
// correction, which is accurate to well under the Monte-Carlo noise of the
// simulations that consume it.
func (r *RNG) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	if mean < 64 {
		// Geometric-skip sampling: number of trials until next success
		// is geometric with parameter p.
		c := 0
		i := 0
		lq := math.Log1p(-p)
		for {
			// skip ~ floor(log(U)/log(1-p)) failures
			skip := int(math.Log(1-r.Float64()) / lq)
			i += skip + 1
			if i > n {
				break
			}
			c++
		}
		return c
	}
	sd := math.Sqrt(mean * (1 - p))
	k := int(math.Round(mean + sd*r.Norm()))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// SampleK chooses k distinct integers uniformly from [0, n) using Floyd's
// algorithm and returns them in unspecified order. It panics if k > n.
func (r *RNG) SampleK(n, k int) []int {
	return r.SampleKAppend(make([]int, 0, k), n, k)
}

// SampleKAppend is SampleK appending into dst, for callers reusing a
// scratch buffer across draws. It consumes the identical RNG stream and
// yields the identical values in the identical order as SampleK: the
// seen-set is the appended prefix itself, scanned linearly — for the
// small k of an error-injection draw that beats building a map, and it
// allocates nothing when dst has capacity.
func (r *RNG) SampleKAppend(dst []int, n, k int) []int {
	if k > n {
		panic("stats: SampleK with k > n")
	}
	start := len(dst)
	for j := n - k; j < n; j++ {
		v := r.Intn(j + 1)
		for _, u := range dst[start:] {
			if u == v {
				v = j
				break
			}
		}
		dst = append(dst, v)
	}
	return dst
}
