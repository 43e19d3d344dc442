package controller

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"xlnand/internal/bch"
	"xlnand/internal/nand"
	"xlnand/internal/stats"
)

// retryRig builds a controller with an explicit retry budget over a
// fresh device.
func retryRig(t testing.TB, maxRetries int, seed uint64) *Controller {
	t.Helper()
	cal := nand.DefaultCalibration()
	dev := nand.NewDevice(cal, 4, seed)
	codec, err := bch.NewCodec(16, cal.PageDataBits(), 3, 65)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxRetries = maxRetries
	c, err := New(dev, bch.NewHWCodec(codec, bch.DefaultHWConfig()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func retryPage(seed uint64, size int) []byte {
	r := stats.NewRNG(seed)
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(r.Intn(256))
	}
	return p
}

// TestReadPageSpareMismatch covers the capability-recovery error path:
// a page whose spare area does not map onto a supported t must be
// rejected with a configuration error, not ErrUncorrectable.
func TestReadPageSpareMismatch(t *testing.T) {
	c := retryRig(t, 4, 1)
	data := retryPage(2, c.Device().Calibration().PageDataBytes)
	// 13 spare bytes = 104 bits: 104/16 = t 6, whose parity is 12 bytes
	// — the stored geometry is inconsistent with every capability.
	if _, err := c.Device().Program(0, 0, data, make([]byte, 13), nand.ISPPSV); err != nil {
		t.Fatal(err)
	}
	_, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil)
	if err == nil {
		t.Fatal("mismatched spare accepted")
	}
	if errors.Is(err, ErrUncorrectable) {
		t.Fatalf("spare mismatch mis-reported as uncorrectable: %v", err)
	}
}

// TestReadPageNeverProgrammed covers the unwritten-page error path; it
// must not consume retry budget, touch the status register, or count as
// an uncorrectable.
func TestReadPageNeverProgrammed(t *testing.T) {
	c := retryRig(t, 4, 1)
	res, err := c.ReadPageRetryInto(0, 3, c.ReadRetry(), nil)
	if err == nil {
		t.Fatal("read of unwritten page succeeded")
	}
	if errors.Is(err, ErrUncorrectable) {
		t.Fatalf("unwritten page mis-reported as uncorrectable: %v", err)
	}
	if res.Retries != 0 || res.Latency.Total() != 0 {
		t.Fatalf("unwritten read consumed ladder budget: %+v", res)
	}
	if c.Manager().Uncorrectables() != 0 {
		t.Fatal("unwritten read counted as uncorrectable")
	}
}

// TestReadPageOutOfRange covers the address error path.
func TestReadPageOutOfRange(t *testing.T) {
	c := retryRig(t, 4, 1)
	if _, err := c.ReadPageRetryInto(99, 0, c.ReadRetry(), nil); err == nil {
		t.Fatal("out-of-range block accepted")
	}
	if _, err := c.ReadPageRetryInto(0, 9999, c.ReadRetry(), nil); err == nil {
		t.Fatal("out-of-range page accepted")
	}
}

// ladderCondition is one (age, bake) corner of the retry matrix.
type ladderCondition struct {
	name   string
	cycles float64
	bake   float64
}

func ladderConditions() []ladderCondition {
	return []ladderCondition{
		{"fresh", 0, 0},
		{"cycled-1e6", 1e6, 0},
		{"baked-1e6", 1e6, 1e4},
	}
}

// prepareLadderPages writes n pages on block 0 under the condition:
// wear first (so the manager provisions t for the aged climate), then
// the retention bake on the stored data.
func prepareLadderPages(t testing.TB, c *Controller, cond ladderCondition, n int) [][]byte {
	t.Helper()
	if cond.cycles > 0 {
		if err := c.Device().SetCycles(0, cond.cycles); err != nil {
			t.Fatal(err)
		}
	}
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = retryPage(uint64(100+i), c.Device().Calibration().PageDataBytes)
		if _, err := c.WritePage(0, i, pages[i]); err != nil {
			t.Fatal(err)
		}
	}
	if cond.bake > 0 {
		c.Device().AdvanceTime(cond.bake)
	}
	return pages
}

// TestRetryLadderMatrix plays the (age x retry-depth) matrix the issue
// asks for: recovery must be monotone in ladder depth, fresh pages must
// never need the ladder, and the retention-baked end-of-life corner —
// uncorrectable at depth 0 — must read back correctly within the
// configured ladder with exact per-stage latency accounting.
func TestRetryLadderMatrix(t *testing.T) {
	const pages = 16
	depths := []int{0, 1, 2, 6}
	fails := map[string]map[int]int{}
	for _, cond := range ladderConditions() {
		fails[cond.name] = map[int]int{}
		for _, depth := range depths {
			c := retryRig(t, depth, 7)
			want := prepareLadderPages(t, c, cond, pages)
			for i := 0; i < pages; i++ {
				res, err := c.ReadPageRetryInto(0, i, c.ReadRetry(), nil)
				if err != nil {
					if !errors.Is(err, ErrUncorrectable) {
						t.Fatalf("%s depth %d: %v", cond.name, depth, err)
					}
					fails[cond.name][depth]++
					continue
				}
				for j := range want[i] {
					if res.Data[j] != want[i][j] {
						t.Fatalf("%s depth %d page %d: decoded data wrong at byte %d", cond.name, depth, i, j)
					}
				}
				if res.Retries > depth {
					t.Fatalf("%s: read took %d retries over budget %d", cond.name, res.Retries, depth)
				}
				assertLatencyAccounting(t, c, res)
				if cond.name == "fresh" && res.Retries != 0 {
					t.Fatalf("fresh page needed %d retries", res.Retries)
				}
			}
		}
	}
	// Monotone recovery: deeper ladders never lose more pages.
	for name, byDepth := range fails {
		for i := 1; i < len(depths); i++ {
			lo, hi := depths[i-1], depths[i]
			if byDepth[hi] > byDepth[lo] {
				t.Fatalf("%s: deeper ladder lost more pages: depth %d -> %d failures, depth %d -> %d",
					name, lo, byDepth[lo], hi, byDepth[hi])
			}
		}
	}
	if fails["fresh"][0] != 0 {
		t.Fatalf("fresh pages failed at depth 0: %d", fails["fresh"][0])
	}
	// The acceptance corner: a retention-baked end-of-life block that
	// loses pages single-shot reads everything back within the ladder.
	if fails["baked-1e6"][0] == 0 {
		t.Fatal("baked EOL pages all readable at depth 0; the matrix exercises nothing")
	}
	if n := fails["baked-1e6"][6]; n != 0 {
		t.Fatalf("full ladder left %d baked EOL pages unreadable", n)
	}
}

// assertLatencyAccounting pins the exact cost model of a recovered
// read: every stage pays full tR + transfer + decode, components sum
// across stages, and the per-stage breakdown is consistent.
func assertLatencyAccounting(t testing.TB, c *Controller, res ReadResult) {
	t.Helper()
	attempts := res.Retries + 1
	if res.Latency.TR != time.Duration(attempts)*nand.PageReadTime {
		t.Fatalf("tR %v for %d attempts, want %v", res.Latency.TR, attempts,
			time.Duration(attempts)*nand.PageReadTime)
	}
	pb, err := c.codec.ParityBytes(res.T)
	if err != nil {
		t.Fatal(err)
	}
	xfer := c.bus.Transfer(len(res.Data) + pb)
	if res.Latency.Transfer != time.Duration(attempts)*xfer {
		t.Fatalf("transfer %v for %d attempts, want %v", res.Latency.Transfer, attempts,
			time.Duration(attempts)*xfer)
	}
	if res.Latency.Total() != res.Latency.TR+res.Latency.Transfer+res.Latency.Decode {
		t.Fatal("latency total not additive")
	}
	if res.Retries == 0 {
		if res.Stages != nil {
			t.Fatalf("single-attempt read materialised %d stages", len(res.Stages))
		}
		return
	}
	if len(res.Stages) != attempts {
		t.Fatalf("%d stages for %d attempts", len(res.Stages), attempts)
	}
	var sum ReadLatency
	for _, st := range res.Stages {
		if st.Latency.TR != nand.PageReadTime {
			t.Fatalf("stage tR %v, want %v", st.Latency.TR, nand.PageReadTime)
		}
		sum.TR += st.Latency.TR
		sum.Transfer += st.Latency.Transfer
		sum.Decode += st.Latency.Decode
	}
	if sum != res.Latency {
		t.Fatalf("stage latencies %+v do not sum to total %+v", sum, res.Latency)
	}
	if res.Stages[len(res.Stages)-1].Step != res.AppliedOffset {
		t.Fatalf("final stage step %d != applied offset %d",
			res.Stages[len(res.Stages)-1].Step, res.AppliedOffset)
	}
}

// TestCalibrationCachePredictsOffset checks the learning loop: once one
// read has paid for walking the ladder, later reads of the same wear
// bucket start at the learned offset and recover without retries.
func TestCalibrationCachePredictsOffset(t *testing.T) {
	const pages = 12
	c := retryRig(t, 6, 21)
	prepareLadderPages(t, c, ladderCondition{"baked", 1e6, 1e4}, pages)
	if got := c.Manager().PredictStep(1e6); got != 0 {
		t.Fatalf("cache pre-populated with step %d", got)
	}
	firstRetries := -1
	predicted := 0
	for i := 0; i < pages; i++ {
		res, err := c.ReadPageRetryInto(0, i, c.ReadRetry(), nil)
		if err != nil {
			t.Fatalf("page %d unreadable with full ladder: %v", i, err)
		}
		if firstRetries == -1 {
			firstRetries = res.Retries
			predicted = res.AppliedOffset
			continue
		}
		// Every subsequent read starts at the cached prediction: no
		// ladder walk, non-zero offset.
		if res.Retries != 0 {
			t.Fatalf("page %d paid %d retries after the cache learned step %d", i, res.Retries, predicted)
		}
		if res.AppliedOffset == 0 {
			t.Fatalf("page %d read at nominal references despite cached step %d", i, predicted)
		}
	}
	if firstRetries == 0 {
		t.Fatal("first baked read needed no retries; cache never exercised")
	}
	if got := c.Manager().PredictStep(1e6); got != predicted {
		t.Fatalf("cache predicts step %d, want %d", got, predicted)
	}
	if c.Manager().Recovered() == 0 {
		t.Fatal("manager recorded no recovered reads")
	}
	hist := c.Manager().RetryHistogram()
	total := 0
	for _, n := range hist {
		total += n
	}
	if total != pages {
		t.Fatalf("retry histogram holds %d reads, want %d", total, pages)
	}
	if hist[0] != pages-1 {
		t.Fatalf("histogram bucket 0 = %d, want %d (all but the ladder walk)", hist[0], pages-1)
	}
}

// TestZeroBudgetReadDoesNotClobberCache: a successful single-shot read
// (forced to step 0, never consulting the cache) must not overwrite the
// learned offset of its wear bucket — and the zero-budget read itself
// must sense at nominal references despite the cached prediction.
func TestZeroBudgetReadDoesNotClobberCache(t *testing.T) {
	const pages = 4
	c := retryRig(t, 6, 33)
	prepareLadderPages(t, c, ladderCondition{"baked", 1e6, 1e4}, pages)
	if _, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil); err != nil {
		t.Fatalf("ladder walk failed: %v", err)
	}
	learned := c.Manager().PredictStep(1e6)
	if learned == 0 {
		t.Fatal("ladder walk taught nothing; cache never exercised")
	}
	// Zero-budget reads until one succeeds at nominal references (the
	// baked medium fails most single shots; any success must neither
	// have used the prediction nor overwrite it).
	for i := 0; i < pages; i++ {
		res, err := c.ReadPageRetryInto(0, i, 0, nil)
		if res.AppliedOffset != 0 {
			t.Fatalf("zero-budget read sensed at step %d, want nominal", res.AppliedOffset)
		}
		_ = err
	}
	if got := c.Manager().PredictStep(1e6); got != learned {
		t.Fatalf("zero-budget reads changed the learned step %d -> %d", learned, got)
	}
}

// TestNegativeLadderDepthFallsBackToNominal: a degenerate stress
// config with RetrySteps < 0 must leave the nominal sense working.
func TestNegativeLadderDepthFallsBackToNominal(t *testing.T) {
	c := retryRig(t, 4, 9)
	s := c.Device().Stress()
	s.RetrySteps = -1
	c.Device().SetStress(s)
	data := retryPage(8, c.Device().Calibration().PageDataBytes)
	if _, err := c.WritePage(0, 0, data); err != nil {
		t.Fatal(err)
	}
	res, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil)
	if err != nil {
		t.Fatalf("nominal read broken by degenerate ladder config: %v", err)
	}
	if res.AppliedOffset != 0 || res.Retries != 0 {
		t.Fatalf("degenerate ladder read at step %d with %d retries", res.AppliedOffset, res.Retries)
	}
}

// TestReadRetryRegister checks the socket-visible configuration surface.
func TestReadRetryRegister(t *testing.T) {
	c := retryRig(t, 3, 1)
	if got := c.ReadRetry(); got != 3 {
		t.Fatalf("ReadRetry = %d, want 3", got)
	}
	c = retryRig(t, -5, 1)
	if got := c.ReadRetry(); got != 0 {
		t.Fatalf("negative budget clamped to %d, want 0", got)
	}
	v, err := c.regs.Read(RegReadRetry)
	if err != nil || v != 0 {
		t.Fatalf("RegReadRetry = %d (%v)", v, err)
	}
}

// TestReadPageAllocs pins the pooled codeword buffer: a steady-state
// read allocates only the caller-owned result page (plus the Data
// header), never a fresh codeword staging buffer.
func TestReadPageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	c := retryRig(t, 4, 3)
	data := retryPage(5, c.Device().Calibration().PageDataBytes)
	if _, err := c.WritePage(0, 0, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil); err != nil {
		t.Fatal(err) // warm codec tables outside the measurement
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("ReadPageRetryInto allocates %.1f objects/op, want <= 2 (result page only)", allocs)
	}
}

// BenchmarkControllerRead extends the decode pipeline's ReportAllocs
// coverage to the controller read path: clean aged page, steady state.
func BenchmarkControllerRead(b *testing.B) {
	c := retryRig(b, 4, 3)
	if err := c.Device().SetCycles(0, 1e4); err != nil {
		b.Fatal(err)
	}
	data := retryPage(5, c.Device().Calibration().PageDataBytes)
	if _, err := c.WritePage(0, 0, data); err != nil {
		b.Fatal(err)
	}
	if _, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadRecovery sweeps the recovery ladder across three device
// ages at three retry depths and reports the recovered UBER (lost bits
// per bit read on the modelled medium) and the modelled read throughput.
func BenchmarkReadRecovery(b *testing.B) {
	const pages = 8
	for _, cond := range ladderConditions() {
		for _, depth := range []int{0, 2, 6} {
			b.Run(fmt.Sprintf("%s/retry%d", cond.name, depth), func(b *testing.B) {
				c := retryRig(b, depth, 11)
				want := prepareLadderPages(b, c, cond, pages)
				pageBits := int64(len(want[0])) * 8
				var bits, lost int64
				var modelled time.Duration
				b.SetBytes(int64(len(want[0])))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := c.ReadPageRetryInto(0, i%pages, c.ReadRetry(), nil)
					bits += pageBits
					modelled += res.Latency.Total()
					if err != nil {
						lost += pageBits
					}
				}
				b.StopTimer()
				if bits > 0 {
					b.ReportMetric(float64(lost)/float64(bits), "recovered-UBER")
				}
				if modelled > 0 {
					b.ReportMetric(float64(len(want[0]))*float64(b.N)/modelled.Seconds()/1e6, "model-MB/s")
				}
			})
		}
	}
}
