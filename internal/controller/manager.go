package controller

import (
	"math"
	"sync"

	"xlnand/internal/ecc"
	"xlnand/internal/nand"
)

// ReliabilityManager is the "integrated reliability manager" of paper §3:
// it fuses decoder feedback (corrected-error counts per codeword) with
// the wear-indexed RBER model to keep the ECC capability at the minimum
// value meeting the UBER target — the in-situ self-adaptation loop.
//
// Two estimation paths coexist:
//
//   - model path: the block's P/E cycle count indexes the calibrated
//     RBER lifetime model (what the paper's evaluation uses);
//   - measurement path: an exponentially-weighted estimate of RBER from
//     observed corrected errors, which overrides the model when it is
//     materially worse (a self-protective bias).
//
// A safety margin multiplies the estimate before the t solver so that
// estimation noise cannot push the real UBER past the target.
type ReliabilityManager struct {
	mu sync.Mutex

	codec      ecc.Codec
	targetUBER float64
	cal        nand.Calibration

	// memo is SelectLevel's last decision per program algorithm. The
	// level is a pure function of the post-margin RBER (codec and
	// targetUBER never change), and consecutive writes mostly repeat
	// it, so one entry per algorithm skips most solver runs.
	memo [2]levelMemo

	// Measurement state, tracked per program algorithm: SV pages and DV
	// pages have error rates an order of magnitude apart, so a shared
	// estimate would poison the better algorithm's capability choice.
	ewmaRBER      [2]float64
	ewmaWeight    [2]float64
	alpha         float64 // EWMA smoothing factor
	uncorrectable int

	// Read-retry calibration cache: the ladder step at which reads of
	// blocks in each wear bucket last decoded successfully. The
	// controller starts its recovery ladder at the predicted step, so
	// once one read has paid for walking the ladder, later reads of
	// similarly worn blocks recover on their first sense — the in-situ
	// analogue of the offline read-voltage optimisation of "Dynamic
	// Write-Voltage Design and Read-Voltage Optimization for MLC NAND
	// Flash Memory".
	predictedStep [retryWearBuckets]int

	// Retry telemetry: reads bucketed by the retries they needed, and
	// the count of reads that only succeeded after at least one retry.
	retryHist [RetryHistBuckets]int
	recovered int

	// Soft-rung telemetry: soft-sense decode attempts and the subset
	// that recovered the page.
	softAttempts  int
	softRecovered int

	// SafetyMargin scales the RBER estimate before solving for t.
	SafetyMargin float64
}

// retryWearBuckets is the calibration cache's wear resolution: one
// bucket per decade of program/erase cycles.
const retryWearBuckets = 8

// RetryHistBuckets is the size of the retry-depth histogram; the last
// bucket collects everything at or beyond RetryHistBuckets-1 retries.
const RetryHistBuckets = 8

// retryWearBucket maps a block's cycle count onto its cache bucket.
func retryWearBucket(cycles float64) int {
	b := int(math.Log10(1 + cycles))
	if b < 0 {
		b = 0
	}
	if b >= retryWearBuckets {
		b = retryWearBuckets - 1
	}
	return b
}

// PredictStep returns the calibrated read-reference ladder step the
// cache predicts for a block at the given wear (0 until a recovery has
// taught the bucket otherwise).
func (m *ReliabilityManager) PredictStep(cycles float64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.predictedStep[retryWearBucket(cycles)]
}

// ObserveRetry feeds one completed read (successful or not) into the
// retry telemetry and, on success, teaches the calibration cache the
// step that worked for the block's wear bucket.
func (m *ReliabilityManager) ObserveRetry(cycles float64, step, retries int, success bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := retries
	if h >= RetryHistBuckets {
		h = RetryHistBuckets - 1
	}
	if h < 0 {
		h = 0
	}
	m.retryHist[h]++
	if success {
		if retries > 0 {
			m.recovered++
		}
		// Teach the cache only from reads that engaged the recovery
		// machinery: a ladder walk (retries > 0) or a first-sense
		// success at a predicted offset (step > 0). A zero-budget read
		// is forced to step 0 without consulting the cache, and its
		// success must not clobber a learned offset.
		if retries > 0 || step > 0 {
			m.predictedStep[retryWearBucket(cycles)] = step
		}
	}
}

// RetryHistogram returns the counts of reads by the retries they needed
// (last bucket: RetryHistBuckets-1 or more).
func (m *ReliabilityManager) RetryHistogram() [RetryHistBuckets]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retryHist
}

// Recovered returns the number of reads that decoded successfully only
// after at least one ladder retry — reads the single-shot pipeline
// would have lost.
func (m *ReliabilityManager) Recovered() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovered
}

func algIndex(alg nand.Algorithm) int {
	if alg == nand.ISPPDV {
		return 1
	}
	return 0
}

// levelMemo pairs a post-margin RBER with the level SelectLevel chose
// for it. A NaN rber never compares equal, so it marks an empty entry.
type levelMemo struct {
	rber  float64
	level int
}

// NewReliabilityManager builds a manager for the codec and UBER target;
// its model path reads the RBER lifetime model of cal, which should be
// the calibration the device runs on.
func NewReliabilityManager(codec ecc.Codec, cal nand.Calibration, targetUBER float64) *ReliabilityManager {
	empty := levelMemo{rber: math.NaN()}
	return &ReliabilityManager{
		codec:        codec,
		targetUBER:   targetUBER,
		cal:          cal,
		memo:         [2]levelMemo{empty, empty},
		alpha:        0.05,
		SafetyMargin: 1.3,
	}
}

// ObserveDecode feeds one successful decode (codeword length n bits,
// nErr corrected) of a page written with the given algorithm into the
// measurement estimator.
func (m *ReliabilityManager) ObserveDecode(alg nand.Algorithm, nBits, nErr int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := algIndex(alg)
	sample := float64(nErr) / float64(nBits)
	if m.ewmaWeight[i] == 0 {
		m.ewmaRBER[i] = sample
		m.ewmaWeight[i] = 1
		return
	}
	m.ewmaRBER[i] = (1-m.alpha)*m.ewmaRBER[i] + m.alpha*sample
}

// ObserveUncorrectable records a decode failure; a burst of failures is
// the strongest possible signal that the capability is under-provisioned.
func (m *ReliabilityManager) ObserveUncorrectable() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.uncorrectable++
}

// Uncorrectables returns the number of observed decode failures.
func (m *ReliabilityManager) Uncorrectables() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.uncorrectable
}

// EstimateRBER fuses the model and measurement paths for the given
// algorithm and wear.
func (m *ReliabilityManager) EstimateRBER(alg nand.Algorithm, cycles float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.estimateLocked(alg, cycles)
}

func (m *ReliabilityManager) estimateLocked(alg nand.Algorithm, cycles float64) float64 {
	est := m.cal.RBER(alg, cycles)
	if i := algIndex(alg); m.ewmaWeight[i] > 0 && m.ewmaRBER[i] > est {
		est = m.ewmaRBER[i]
	}
	return est
}

// SelectLevel returns the minimum capability level meeting the UBER
// target at the estimated RBER (with safety margin), clamped to the
// codec's range. If even the strongest level cannot meet the target the
// manager pins it — the device is end-of-life and the status path will
// surface uncorrectables. For the BCH family the level is the
// correction capability t; for LDPC it is the rate index. A repeat of
// the algorithm's previous post-margin RBER returns the memoised level
// without running the solver.
func (m *ReliabilityManager) SelectLevel(alg nand.Algorithm, cycles float64) int {
	memo := &m.memo[algIndex(alg)]
	m.mu.Lock()
	rber := m.estimateLocked(alg, cycles) * m.SafetyMargin
	if memo.rber == rber {
		lvl := memo.level
		m.mu.Unlock()
		return lvl
	}
	m.mu.Unlock()
	lvl, err := m.codec.RequiredLevel(rber, m.targetUBER)
	if err != nil {
		lvl = m.codec.MaxLevel()
	} else {
		lvl = m.codec.ClampLevel(lvl)
	}
	m.mu.Lock()
	*memo = levelMemo{rber, lvl}
	m.mu.Unlock()
	return lvl
}

// ObserveSoft feeds one soft-rung decode attempt into the telemetry.
func (m *ReliabilityManager) ObserveSoft(success bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.softAttempts++
	if success {
		m.softRecovered++
	}
}

// SoftStats returns the soft-rung attempt and recovery counts.
func (m *ReliabilityManager) SoftStats() (attempts, recovered int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.softAttempts, m.softRecovered
}
