package main

import (
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine,
// and for tens of seconds at a time a neighbour slows them: code that
// keeps the core's execution units busy runs 1.5 to 2 times slower, code
// that waits on its own dependency chains barely notices. A run that
// falls into such a stretch reads the neighbour, not the program, and no
// median taken inside the run helps, because the stretch outlasts it.
//
// So the measured phase is cut into slices at fixed op counts, and a
// reference kernel is timed between the slices: fixed work, in this file,
// that no change to the program touches. A slice's host time is divided
// by the slowdown the kernel saw beside it, weighted by how much of the
// kernel's slowdown the workload shows, and the end-to-end host-time
// metrics are made of these scaled times ("as on a quiet host"). The
// times as measured and the slowdown taken out are per-layer metrics
// (bench.raw_wall_ops_per_s, bench.host_slowdown). README.md, "Noise",
// has the measurements this rests on.

const (
	// refIters sizes one pass of the kernel to about 0.25 ms.
	refIters = 100_000
	// refPasses passes make a sample; the fastest counts, so an
	// interrupt that lands in one pass does not read as a slow host.
	refPasses = 3
	// refNominalNs is a sample on the quiet host the benchmark was sized
	// on (2 vCPUs of a 2.1 GHz Xeon). It fixes the unit of the scaled
	// times: every run, of every commit, is scaled by the same constant.
	refNominalNs = 230e3
	// setupSens is the sens (see hostMeter) of set-up, which is fills and
	// warm reads on every workload.
	setupSens = 0.6
)

// hostTraits is, per workload, the sens and two of its hostMeter. The
// values are fits over ~170 blocks a workload of one seed, taken while the
// host went in and out of slow stretches: the sens that left the scaled
// block times with the least spread (README.md, "Noise"). A -child block
// prints its slices, which is what the fit reads.
var hostTraits = map[string]hostMeter{
	"array-clean":   {sens: 0.60, two: true},
	"array-mixed":   {sens: 0.80, two: true},
	"drive-eol-bch": {sens: 1.15},
	"biography":     {sens: 0.50},
}

// refSink keeps the kernel's result alive; two goroutines add to it.
var refSink atomic.Uint64

// refPass is eight independent integer chains: it fills the core's issue
// width, as the decoders' word-parallel loops do, which is what makes it
// feel a busy neighbour. (A kernel of one dependent chain slowed by 3 %
// in the stretches where this one slowed by 60 % and BCH decode by 65 %.)
func refPass() time.Duration {
	t0 := time.Now()
	var a, b, c, d, e, f, g, h uint64 = 1, 2, 3, 4, 5, 6, 7, 8
	for i := uint64(0); i < refIters; i++ {
		a += a<<3 ^ i
		b ^= b>>5 + 0x9e37
		c += c<<7 ^ 0x79b9
		d ^= d>>11 + i
		e += e<<1 ^ 0x7f4a
		f ^= f>>13 + 0x7c15
		g += g<<9 ^ i
		h ^= h>>3 + 0xbf58
	}
	refSink.Add(a + b + c + d + e + f + g + h)
	return time.Since(t0)
}

func refOnce() float64 {
	best := refPass()
	for i := 1; i < refPasses; i++ {
		best = min(best, refPass())
	}
	return float64(best)
}

// quiet scales a host time taken while the kernel read refNs, for work
// that shows the share sens of the kernel's slowdown.
func quiet(s, refNs, sens float64) float64 {
	return s / (1 + sens*(refNs/refNominalNs-1))
}

// hostSlice is one slice as measured, with the mean of the kernel
// samples either side of it.
type hostSlice struct {
	WallS float64 `json:"w"`
	CPUS  float64 `json:"c"`
	RefNs float64 `json:"r"`
}

// hostMeter accumulates the slices of one measured phase.
type hostMeter struct {
	// sens is the share of the kernel's slowdown the workload shows: 1
	// for code as busy as the kernel, less for code that waits on memory
	// or on other goroutines.
	sens float64
	// two is set for the workloads whose work runs on two threads: the
	// kernel is then timed on two goroutines at once and the mean counts,
	// because a neighbour slows one core at a time.
	two  bool
	peer chan float64

	ref0 float64 // the sample that opened the current slice, ns
	t0   time.Time
	cpu0 float64

	wallS, cpuS           float64 // as measured
	quietWallS, quietCPUS float64 // scaled to the quiet host
	slices                []hostSlice
}

func (h *hostMeter) sample() float64 {
	if !h.two {
		return refOnce()
	}
	if h.peer == nil {
		h.peer = make(chan float64, 1)
	}
	go func() { h.peer <- refOnce() }()
	return (refOnce() + <-h.peer) / 2
}

func (h *hostMeter) open(ref float64) {
	h.ref0 = ref
	h.cpu0, _ = usage()
	h.t0 = time.Now()
}

// cut closes the current slice and opens the next. It returns how long
// the kernel took, which is part of neither.
func (h *hostMeter) cut() time.Duration {
	wall := time.Since(h.t0).Seconds()
	cpu, _ := usage()
	cpu -= h.cpu0
	t := time.Now()
	next := h.sample()
	ref := (h.ref0 + next) / 2
	h.wallS += wall
	h.cpuS += cpu
	h.quietWallS += quiet(wall, ref, h.sens)
	h.quietCPUS += quiet(cpu, ref, h.sens)
	h.slices = append(h.slices, hostSlice{wall, cpu, ref})
	h.open(next)
	return h.t0.Sub(t)
}
