// Package obs is the deterministic observability layer for the
// simulator: fixed-bucket log-scale latency histograms, a virtual-time
// span tracer exporting Chrome trace-event JSON, and a small metrics
// registry with stable Prometheus-style output. Everything here is
// stamped with the simulator's virtual clocks — never wall time — so
// any two runs of the same seeded scenario produce byte-identical
// traces, histograms, and metric snapshots.
package obs

import (
	"math/bits"
	"time"

	"xlnand/internal/stats"
)

// histSubBits is the number of sub-bucket bits per power of two: each
// power-of-two range splits into 32 linear sub-buckets, bounding the
// relative quantization error of any recorded value at 1/32 ≈ 3.1%.
const histSubBits = 5

const (
	histSubBuckets = 1 << histSubBits // 32
	// Values below 2^(histSubBits+1) = 64ns land in two exact unit rows;
	// every higher power of two contributes histSubBuckets buckets. A
	// uint64 nanosecond value has at most 64-6 = 58 shifted ranges, so
	// the top index is (58+1)*32 + 31 < 1920.
	histBuckets = (64 - histSubBits) * histSubBuckets
)

// LatencyHist is an HDR-style latency histogram over nanosecond
// durations: fixed storage, power-of-2 ranges with 32 linear
// sub-buckets each, zero-allocation Record, and element-wise Merge.
// It is not internally synchronized — each instance is owned by a
// single goroutine (a drive worker or the array front end) and merged
// at report time in deterministic drive-index order.
type LatencyHist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
	min    uint64
	max    uint64
}

// histIndex maps a nanosecond value to its bucket. Values 0..63 map to
// themselves (exact); larger values keep their top 6 bits.
func histIndex(v uint64) int {
	if v < 2*histSubBuckets {
		return int(v)
	}
	shift := uint(bits.Len64(v)) - (histSubBits + 1)
	top := v >> shift // in [32, 64)
	return int(shift+1)*histSubBuckets + int(top-histSubBuckets)
}

// histValue returns the representative (midpoint) nanosecond value of
// bucket i — the inverse of histIndex up to sub-bucket quantization.
func histValue(i int) uint64 {
	if i < 2*histSubBuckets {
		return uint64(i)
	}
	shift := uint(i/histSubBuckets) - 1
	top := uint64(i%histSubBuckets) + histSubBuckets
	lo := top << shift
	return lo + (uint64(1)<<shift)/2
}

// Record adds one duration. Negative durations clamp to zero. It never
// allocates; on the simulated-read hot path it costs a few nanoseconds
// against a multi-microsecond op.
func (h *LatencyHist) Record(d time.Duration) {
	if h == nil {
		return
	}
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[histIndex(v)]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
}

// Count returns the number of recorded durations.
func (h *LatencyHist) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Merge adds every bucket of o into h. Merging is associative and
// commutative, so fleet-level histograms are assembled from per-drive
// ones in any grouping without changing the result.
func (h *LatencyHist) Merge(o *LatencyHist) {
	if o == nil || o.n == 0 {
		return
	}
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// HistSnapshot is a serializable summary of a LatencyHist. Latencies
// are reported in microseconds, matching the virtual-time units used
// throughout the fleet reports. Percentiles come from
// stats.PercentileWeighted over the (bucket midpoint, count) pairs —
// the same closest-ranks interpolation used for exact samples — and
// are clamped to the observed [min, max].
type HistSnapshot struct {
	Count  uint64  `json:"count"`
	MinUs  float64 `json:"min_us"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

const nsPerUs = 1e3

// Snapshot summarizes the histogram. It allocates (report time only).
func (h *LatencyHist) Snapshot() HistSnapshot {
	if h == nil || h.n == 0 {
		return HistSnapshot{}
	}
	p := h.quantiles(0.50, 0.99, 0.999)
	return HistSnapshot{
		Count:  h.n,
		MinUs:  float64(h.min) / nsPerUs,
		MeanUs: float64(h.sum) / float64(h.n) / nsPerUs,
		P50Us:  p[0] / nsPerUs,
		P99Us:  p[1] / nsPerUs,
		P999Us: p[2] / nsPerUs,
		MaxUs:  float64(h.max) / nsPerUs,
	}
}

// Quantile returns the q-quantile of the recorded durations, resolved
// through stats.PercentileWeighted and clamped to [min, max]. Returns
// 0 for an empty histogram.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	if h == nil || h.n == 0 {
		return 0
	}
	return time.Duration(h.quantiles(q)[0])
}

// quantiles resolves each q, in nanoseconds, through
// stats.PercentileWeighted over the (bucket midpoint, count) pairs,
// clamped to the observed [min, max]. The histogram must not be empty.
func (h *LatencyHist) quantiles(qs ...float64) []float64 {
	var (
		vals    []float64
		weights []uint64
	)
	for i, c := range h.counts {
		if c != 0 {
			vals = append(vals, float64(histValue(i)))
			weights = append(weights, c)
		}
	}
	out := make([]float64, len(qs))
	for k, q := range qs {
		v := stats.PercentileWeighted(vals, weights, q)
		if v < float64(h.min) {
			v = float64(h.min)
		}
		if v > float64(h.max) {
			v = float64(h.max)
		}
		out[k] = v
	}
	return out
}
