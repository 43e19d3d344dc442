package ldpc

import (
	"sync"
	"time"

	"xlnand/internal/ecc"
	"xlnand/internal/stats"
)

// The flat DecodeLatency model prices every dirty decode at the mean
// iteration count, but a min-sum engine's convergence time is strongly
// error-weight dependent: a one-bit upset settles in two or three
// layered passes while a near-cap pattern grinds through ten or more.
// The measured tables below close that gap — each capability level runs
// its own decoder against seeded random error patterns at a grid of
// weights and records the mean iterations-to-converge, so the codec
// calendar books the cost the engine would actually pay for the error
// weight the read observed. The page geometry's tables ship precomputed
// in latency_tables.go; calibrate generates them, and builds the tables
// of any other geometry on first use.
const (
	// calTrials decodes per sampled weight; the layered schedule is
	// near-deterministic in weight, so a small sample already has tight
	// spread.
	calTrials = 3
	// calGridSteps sampled weights per level (intermediate weights are
	// linearly interpolated); keeps the one-off calibration to a few
	// dozen decodes.
	calGridSteps = 8
	// calSeed roots the calibration RNG; mixed with the level so every
	// level measures an independent — but reproducible — pattern set.
	calSeed = 0x1d9c0decca11b8a7
)

// measuredTable is one level's calibration: mean min-sum iterations to
// convergence indexed by injected error weight, 0..flipGuard(HardCap).
type measuredTable struct {
	iters []float64
}

// measuredAt returns (building on first use) the level's calibration
// table. The table is a pure function of what measuredKey names, so it
// is built at most once per process, not once per drive; the page
// geometry's tables ship precomputed (pageMeasuredIters), and only
// other geometries pay the few dozen decodes of a calibration.
func (c *Codec) measuredAt(level int) *measuredTable {
	i := c.ClampLevel(level)
	if t := c.measured[i].Load(); t != nil {
		return t
	}
	key := measuredKey{c.p.K, c.p.ParityBits[i], c.p.HardCap[i], i}
	measuredTables.Lock()
	defer measuredTables.Unlock()
	t := measuredTables.m[key]
	if t == nil {
		t = c.calibrate(i)
		measuredTables.m[key] = t
	}
	c.measured[i].Store(t)
	return t
}

// measuredTables holds every calibration made so far, seeded with the
// page geometry's committed tables; the lock is held across a
// calibration so concurrent drives wait for one instead of each running
// their own.
var measuredTables = struct {
	sync.Mutex
	m map[measuredKey]*measuredTable
}{m: pageMeasuredTables()}

type measuredKey struct{ k, parityBits, hardCap, level int }

// pageMeasuredTables keys the committed pageMeasuredIters under the
// PageParams geometry.
func pageMeasuredTables() map[measuredKey]*measuredTable {
	p := PageParams()
	m := make(map[measuredKey]*measuredTable)
	for i, iters := range pageMeasuredIters {
		m[measuredKey{p.K, p.ParityBits[i], p.HardCap[i], i}] = &measuredTable{iters: iters}
	}
	return m
}

// calibrate measures the level's iterations-to-converge curve: encode a
// seeded random message, flip w bits, decode, record the iteration
// count the engine reports — the direct observable, not a model of it.
// Weights between grid points interpolate linearly; weights past the
// flip guard clamp to the last entry (such decodes are refused anyway).
func (c *Codec) calibrate(level int) *measuredTable {
	maxW := flipGuard(c.p.HardCap[level])
	t := &measuredTable{iters: make([]float64, maxW+1)}
	d, err := c.decoder(level)
	if err != nil {
		return t
	}
	rng := stats.NewRNG(calSeed + uint64(level)*0x9e3779b97f4a7c15)
	msg := make([]byte, c.p.K/8)
	for i := range msg {
		msg[i] = byte(rng.Intn(256))
	}
	pb, _ := c.ParityBytes(level)
	clean := make([]byte, len(msg)+pb)
	copy(clean, msg)
	if err := c.EncodeInto(level, clean[len(msg):], msg); err != nil {
		return t
	}
	cw := make([]byte, len(clean))
	step := maxW / calGridSteps
	if step < 1 {
		step = 1
	}
	prevW, prevIters := 0, 0.0
	record := func(w int, iters float64) {
		// Fill the gap from the previous grid point by interpolation.
		for u := prevW + 1; u <= w; u++ {
			frac := float64(u-prevW) / float64(w-prevW)
			t.iters[u] = prevIters + frac*(iters-prevIters)
		}
		prevW, prevIters = w, iters
	}
	for w := step; w <= maxW; w += step {
		if w+step > maxW {
			w = maxW // land the grid exactly on the guard bound
		}
		total := 0
		for trial := 0; trial < calTrials; trial++ {
			copy(cw, clean)
			for _, p := range rng.SampleK(len(cw)*8, w) {
				cw[p/8] ^= 1 << uint(7-p%8)
			}
			// A failed decode counts too — beyond the cliff (possible
			// near the guard bound) the engine burned what it burned;
			// that is the cost.
			_, iters, _ := d.decodeIter(cw, nil, maxIterHard, maxW)
			total += iters
		}
		record(w, float64(total)/calTrials)
		if w == maxW {
			break
		}
	}
	return t
}

// MeasuredDecodeLatency implements ecc.MeasuredLatency: the decode cost
// at the observed error weight, from the calibrated iteration tables
// run through the same pipeline model as the flat estimate. Weight zero
// is the early-termination syndrome pass; weights past the flip guard
// clamp to the heaviest measured entry.
func (c *Codec) MeasuredDecodeLatency(level, nErr int) time.Duration {
	i := c.ClampLevel(level)
	n := float64(c.p.K + crcBits + c.p.ParityBits[i])
	cycles := n/float64(c.hw.BitParallelism) + float64(c.hw.PipelineFillCyc)
	if nErr > 0 {
		t := c.measuredAt(i)
		w := nErr
		if w >= len(t.iters) {
			w = len(t.iters) - 1
		}
		perIter := float64(c.edgeCount(i))/float64(c.hw.EdgeParallelism) + n/float64(c.hw.BitParallelism)
		cycles += t.iters[w] * perIter
	}
	return c.toDuration(cycles)
}

var _ ecc.MeasuredLatency = (*Codec)(nil)
