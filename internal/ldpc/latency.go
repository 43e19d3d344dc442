package ldpc

import (
	"slices"
	"time"

	"xlnand/internal/ecc"
)

// The flat DecodeLatency model prices every dirty decode at the mean
// iteration count, but a min-sum engine's convergence time is strongly
// error-weight dependent: a one-bit upset settles in two or three
// layered passes while a near-cap pattern grinds through ten or more.
// The measured tables close that gap — each capability level's decoder
// was run against seeded random error patterns at a grid of weights and
// the mean iterations-to-converge recorded, so the codec calendar books
// the cost the engine would actually pay for the error weight the read
// observed. The tables are committed data (latency_tables.go) for the
// page geometry, the only one the controller stack builds; the seeded
// generator lives in latency_test.go, which checks the literal against
// a fresh run.

// measuredIters returns the committed iteration tables when p is the
// page geometry, and nil otherwise. The tables depend only on what the
// decoder sees — the message length, each level's parity length and
// its flip guard — so those are what must match.
func measuredIters(p Params) [][]float64 {
	page := PageParams()
	if p.K != page.K || !slices.Equal(p.ParityBits, page.ParityBits) || !slices.Equal(p.HardCap, page.HardCap) {
		return nil
	}
	return pageMeasuredIters
}

// MeasuredDecodeLatency implements ecc.MeasuredLatency: the decode cost
// at the observed error weight, from the measured iteration tables run
// through the same pipeline model as the flat estimate. Weight zero is
// the early-termination syndrome pass; weights past the flip guard
// clamp to the heaviest measured entry.
//
// A geometry without committed tables prices exactly like the flat
// DecodeLatency(level, nErr == 0): the interface has no error to
// return, measuring at first use would put a few dozen seeded decodes
// on the read path of whichever drive asks first, and the flat model's
// stated mean beats a table no test has checked. No reader of the
// latency model builds such a geometry today.
func (c *Codec) MeasuredDecodeLatency(level, nErr int) time.Duration {
	i := c.ClampLevel(level)
	if c.iters == nil {
		return c.DecodeLatency(i, nErr == 0)
	}
	n := float64(c.p.K + crcBits + c.p.ParityBits[i])
	cycles := n/float64(c.hw.BitParallelism) + float64(c.hw.PipelineFillCyc)
	if nErr > 0 {
		iters := c.iters[i]
		w := min(nErr, len(iters)-1)
		perIter := float64(c.edgeCount(i))/float64(c.hw.EdgeParallelism) + n/float64(c.hw.BitParallelism)
		cycles += iters[w] * perIter
	}
	return c.toDuration(cycles)
}

var _ ecc.MeasuredLatency = (*Codec)(nil)
