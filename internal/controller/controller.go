// Package controller implements the advanced NAND memory controller of
// paper §3 (Fig. 1): the page-buffer RAM, the adaptive-ECC datapath glue
// and the reliability manager that re-selects the correction capability
// and the program algorithm at runtime to hold a target UBER.
package controller

import (
	"errors"
	"fmt"
	"math"
	"time"

	"xlnand/internal/ecc"
	"xlnand/internal/nand"
)

// ErrUncorrectable is surfaced when the decoder cannot repair a page.
var ErrUncorrectable = errors.New("controller: uncorrectable page")

// Controller drives one NAND device through a family-generic adaptive
// codec (BCH or LDPC behind the ecc.Codec interface). It owns the page
// buffer, its runtime settings and the reliability manager, and
// accounts architectural latency for every operation with the paper's
// timing model: page read time tR, bus transfer, and the codec's own
// latency descriptors.
type Controller struct {
	dev   *nand.Device
	codec ecc.Codec
	bus   nand.FlashBus
	mgr   *ReliabilityManager

	alg         nand.Algorithm // program algorithm for subsequent writes
	level       int            // pinned capability level, used when !adaptive
	adaptive    bool           // the manager selects each write's level
	maxRetries  int            // read-recovery ladder budget (ReadRetry)
	softRetries int            // soft-decision rung budget

	pageBuffer []byte // controller-side page RAM (Fig. 1), size of one codeword
	readBuffer []byte // codeword staging RAM for the read path (pooled across reads)
	llrBuffer  []int8 // per-bit confidence staging for soft-sense reads (soft codecs only)

	// cleanSeq records, per physical page, the device content stamp of
	// the last codeword this controller encoded and programmed there.
	// A sense whose stamp matches came back as exactly that codeword
	// with the device's reported flips inverted, so the read decodes
	// from the positions (ecc.Codec.DecodeSensed): how much of the
	// decode that saves, a zero-flip read included, is the codec's
	// affair. Any reprogram, through this controller or not, bumps the
	// device stamp and voids the mark.
	cleanSeq []uint64
	// cleanHits counts stamped reads whose sense injected no errors —
	// the observability layer surfaces it per drive so fleet reports
	// show how much of the read load needed no correction at all.
	cleanHits uint64
}

// Config parametrises controller construction.
type Config struct {
	Bus nand.FlashBus
	// TargetUBERExp is the manager's UBER target as a negative power of
	// ten (e.g. 11 for 1e-11).
	TargetUBERExp uint32
	// MaxRetries is the read-recovery ladder budget: how many re-reads at
	// shifted read references a failing decode may trigger (0 disables
	// staged recovery; negative is clamped to 0).
	MaxRetries int
	// SoftRetries is the soft-decision rung budget: how many soft-sense
	// decode attempts the recovery ladder's final rung may make once
	// every hard reference shift has failed (ignored by codecs without a
	// soft path; negative is clamped to 0).
	SoftRetries int
}

// DefaultConfig returns the paper's baseline controller configuration:
// default bus, UBER target 1e-11 and a 4-step read-recovery ladder.
// SoftRetries arms one soft-sense attempt as the ladder's final rung,
// but the rung only engages on reads whose budget clears the device's
// FULL hard ladder — with the default 4-retry budget that is the FTL's
// deep-retry path; raise MaxRetries past the device's RetrySteps (e.g.
// WithReadRetry(7) on the default stress model) to put it on the
// ordinary read path.
func DefaultConfig() Config {
	return Config{
		Bus:           nand.DefaultFlashBus(),
		TargetUBERExp: 11,
		MaxRetries:    4,
		SoftRetries:   1,
	}
}

// New wires a controller to a device and an adaptive codec. The codec's
// message length must match the device page size. The controller starts
// adaptive, programming with ISPP-SV; SetCapability pins a level instead.
func New(dev *nand.Device, codec ecc.Codec, cfg Config) (*Controller, error) {
	if codec.DataBits() != dev.Calibration().PageDataBits() {
		return nil, fmt.Errorf("controller: codec protects %d bits but page holds %d",
			codec.DataBits(), dev.Calibration().PageDataBits())
	}
	maxParity, err := codec.ParityBytes(codec.MaxLevel())
	if err != nil {
		return nil, err
	}
	if maxParity > dev.Calibration().PageSpareBytes {
		return nil, fmt.Errorf("controller: worst-case parity %d B exceeds spare area %d B",
			maxParity, dev.Calibration().PageSpareBytes)
	}
	bufBytes := dev.Calibration().PageDataBytes + dev.Calibration().PageSpareBytes
	c := &Controller{
		dev:        dev,
		codec:      codec,
		bus:        cfg.Bus,
		pageBuffer: make([]byte, bufBytes),
		readBuffer: make([]byte, bufBytes),
		cleanSeq:   make([]uint64, dev.Blocks()*dev.PagesPerBlock()),
		mgr:        NewReliabilityManager(codec, dev.Calibration(), math.Pow10(-int(cfg.TargetUBERExp))),

		level:       codec.MaxLevel(),
		adaptive:    true,
		maxRetries:  max(cfg.MaxRetries, 0),
		softRetries: max(cfg.SoftRetries, 0),
	}
	if codec.SupportsSoft() {
		c.llrBuffer = make([]int8, bufBytes*8)
	}
	return c, nil
}

// Manager exposes the reliability manager for inspection.
func (c *Controller) Manager() *ReliabilityManager { return c.mgr }

// Device exposes the attached NAND device.
func (c *Controller) Device() *nand.Device { return c.dev }

// CleanHits reports how many read attempts sensed a page this
// controller programmed with no bit in error (stamped, zero flips),
// whatever the codec's decode then did with it. Like the rest of the
// controller it must be read with the die quiescent (or via the
// dispatcher's control-plane hop).
func (c *Controller) CleanHits() uint64 { return c.cleanHits }

// SetAlgorithm selects the program algorithm for subsequent writes —
// the runtime program-algorithm selection this paper introduces.
func (c *Controller) SetAlgorithm(alg nand.Algorithm) { c.alg = alg }

// SetCapability pins the capability level (clamped to the codec's level
// range — t for BCH, rate index for LDPC) and disables the adaptive
// manager's override for subsequent operations.
func (c *Controller) SetCapability(level int) {
	c.level = c.codec.ClampLevel(level)
	c.adaptive = false
}

// currentLevel resolves the capability level for the next operation: the
// manager's choice in adaptive mode, the pinned level otherwise.
func (c *Controller) currentLevel(blockIdx int) int {
	if !c.adaptive {
		return c.level
	}
	cycles, err := c.dev.Cycles(blockIdx)
	if err != nil {
		cycles = 0
	}
	return c.mgr.SelectLevel(c.alg, cycles)
}

// WriteLatency breaks down one page write.
type WriteLatency struct {
	Encode   time.Duration
	Transfer time.Duration
	Program  time.Duration
}

// Total returns the end-to-end (unpipelined) write latency.
func (l WriteLatency) Total() time.Duration { return l.Encode + l.Transfer + l.Program }

// WriteResult reports one page write.
type WriteResult struct {
	// T is the capability level the page was encoded at (the BCH
	// correction capability t, or the LDPC rate index).
	T        int
	Alg      nand.Algorithm
	Latency  WriteLatency
	Program  nand.ProgramResult
	ParityBy int
}

// WritePage encodes data (exactly one page) at the current capability and
// programs it with the current algorithm. The modelled latency covers
// encode, codeword transfer and the ISPP run.
func (c *Controller) WritePage(blockIdx, pageIdx int, data []byte) (WriteResult, error) {
	var res WriteResult
	if len(data) != c.dev.Calibration().PageDataBytes {
		return res, fmt.Errorf("controller: page write needs %d bytes, got %d",
			c.dev.Calibration().PageDataBytes, len(data))
	}
	res.T = c.currentLevel(blockIdx)
	res.Alg = c.alg
	pb, err := c.codec.ParityBytes(res.T)
	if err != nil {
		return res, err
	}
	// Page buffer staging (Fig. 1: the embedded RAM between socket and
	// flash interface): the parity is encoded straight into the buffer's
	// spare region, so the steady-state write path allocates nothing —
	// the device copies on Program.
	copy(c.pageBuffer, data)
	parity := c.pageBuffer[len(data) : len(data)+pb]
	if err := c.codec.EncodeInto(res.T, parity, data); err != nil {
		return res, err
	}
	res.ParityBy = len(parity)

	prog, err := c.dev.Program(blockIdx, pageIdx, data, parity, res.Alg)
	if err != nil {
		return res, err
	}
	res.Program = prog
	// The page now stores a codeword this controller encoded: stamp it
	// clean so error-free senses can skip the decode.
	if idx := blockIdx*c.dev.PagesPerBlock() + pageIdx; idx >= 0 && idx < len(c.cleanSeq) {
		c.cleanSeq[idx] = c.dev.LastProgramSeq()
	}
	res.Latency = WriteLatency{
		Encode:   c.codec.EncodeLatency(res.T),
		Transfer: c.bus.Transfer(len(data) + len(parity)),
		Program:  prog.Duration,
	}
	return res, nil
}

// ReadLatency breaks down one page read. For a recovered read the
// components are sums across every ladder stage (each retry pays full
// tR + transfer + decode; a soft stage pays one tR and transfer per
// component sense); ReadResult.Stages holds the per-stage split.
type ReadLatency struct {
	TR       time.Duration // array-to-register sensing
	Transfer time.Duration // codeword over the flash bus
	Decode   time.Duration // decoder occupancy at the codec clock
}

// Total returns the end-to-end read latency.
func (l ReadLatency) Total() time.Duration { return l.TR + l.Transfer + l.Decode }

// ReadStage records one sense attempt of the recovery ladder.
type ReadStage struct {
	// Step is the read-reference ladder step the page was sensed at.
	Step int
	// Soft marks the soft-decision rung: a multi-sense read feeding the
	// codec's soft-input decoder.
	Soft bool
	// Senses is the number of component array senses this attempt paid
	// (1 for a hard read, StressConfig.SoftSenses for a soft read).
	Senses int
	// Latency is this attempt's full cost (tR + transfer + decode,
	// summed over its component senses).
	Latency ReadLatency
}

// ReadResult reports one page read.
type ReadResult struct {
	Data []byte
	// T is the capability level recovered from the stored parity
	// geometry (BCH t, or LDPC rate index).
	T         int
	Alg       nand.Algorithm
	Corrected int
	// Retries counts the decode attempts beyond the first (soft-rung
	// attempts included); 0 means the read at the predicted reference
	// offset decoded immediately.
	Retries int
	// AppliedOffset is the read-reference ladder step of the final
	// attempt — the one that decoded, or the last failure.
	AppliedOffset int
	// Soft reports that the final attempt was the soft-decision rung;
	// SoftSenses is the total number of component array senses the soft
	// rung paid (0 when the read never went soft).
	Soft       bool
	SoftSenses int
	// BlockReads is the block's reads-since-erase counter after this
	// read (its senses included) — the disturb telemetry the FTL's
	// retry guard budgets against without a control-plane round trip.
	BlockReads float64
	// Latency is the end-to-end cost, summed over every ladder stage.
	Latency ReadLatency
	// Stages breaks the ladder down per attempt. It is nil for
	// single-attempt reads (the common case stays allocation-lean):
	// the one stage is then exactly Latency at step AppliedOffset.
	Stages []ReadStage
}

// maxLadderSlots bounds the attempt-order scratch; devices calibrate
// far fewer ladder steps than this.
const maxLadderSlots = 32

// noteStage accumulates one ladder attempt into the result: latency
// components, the per-stage breakdown (materialised lazily once a second
// attempt happens), retry count and applied offset.
func (res *ReadResult) noteStage(step int, soft bool, senses, attempt, capHint int, stage ReadLatency) {
	res.Latency.TR += stage.TR
	res.Latency.Transfer += stage.Transfer
	res.Latency.Decode += stage.Decode
	if attempt == 1 {
		// The ladder engaged: materialise the per-stage breakdown,
		// back-filling the first attempt.
		first := ReadStage{Step: res.AppliedOffset, Soft: res.Soft, Senses: 1, Latency: res.Latency}
		first.Latency.TR -= stage.TR
		first.Latency.Transfer -= stage.Transfer
		first.Latency.Decode -= stage.Decode
		res.Stages = append(make([]ReadStage, 0, capHint), first)
	}
	if res.Stages != nil {
		res.Stages = append(res.Stages, ReadStage{Step: step, Soft: soft, Senses: senses, Latency: stage})
	}
	res.Retries = attempt
	res.AppliedOffset = step
	res.Soft = soft
	if soft {
		res.SoftSenses += senses
	}
}

// claimData materialises a read result's data: into dst when it is big
// enough, freshly allocated otherwise.
func claimData(dst, src []byte) []byte {
	if len(dst) >= len(src) {
		dst = dst[:len(src)]
	} else {
		dst = make([]byte, len(src))
	}
	copy(dst, src)
	return dst
}

// ReadPageRetryInto reads, transfers and decodes a page through the
// staged read-recovery ladder with an explicit retry budget (callers
// holding no override pass ReadRetry(), the configured budget).
// The first sense happens at the read-reference offset the reliability
// manager's calibration cache predicts for the block's wear; a decode
// failure walks the remaining ladder steps (nominal references first,
// then deeper shifts) until the decode succeeds or the budget is
// exhausted. Every attempt pays the full tR + transfer + decode latency
// and counts against the block's read-disturb stress.
//
// When the budget extends past the deepest reference shift and the codec
// has a soft-decision path, the ladder's final rung is a soft-sense
// read: the device senses the page at adjacent references (each
// component sense paying tR and disturb stress), derives per-bit
// confidence, and the codec's soft-input decoder takes over — the
// recovery endgame for pages no hard reference shift can save. The
// decode runs at the capability level the page was written with,
// recovered from the stored parity length — reconfiguring the
// controller between write and read therefore never corrupts old
// pages. Uncorrectable pages return ErrUncorrectable with the final
// attempt's raw data attached.
//
// The decoded page lands in dst when it is at least the page's data
// size (the result's Data then aliases dst and the steady-state read
// performs no allocation); a nil or short dst gets a fresh page.
func (c *Controller) ReadPageRetryInto(blockIdx, pageIdx, maxRetries int, dst []byte) (ReadResult, error) {
	var res ReadResult
	res.Alg = c.alg
	if alg, err := c.dev.WrittenAlgorithm(blockIdx, pageIdx); err == nil {
		res.Alg = alg // report the algorithm the page actually carries
	}
	cycles, err := c.dev.Cycles(blockIdx)
	if err != nil {
		cycles = 0 // out-of-range block: the first sense will report it
	}

	// Ladder order: the calibrated prediction first, then every other
	// step from the nominal references upward. A mispredicted offset
	// therefore re-tries the nominal read before paying deeper shifts.
	// A zero budget is the true pre-recovery single-shot path: nominal
	// references, no prediction — with no retry to fall back on, a
	// stale cache entry (e.g. taught by an FTL deep-retry rescue) must
	// not be able to over-shift the only sense the read gets.
	steps := c.dev.RetrySteps()
	if steps < 0 {
		steps = 0 // degenerate stress config: only the nominal sense exists
	}
	if steps >= maxLadderSlots {
		steps = maxLadderSlots - 1
	}
	pred := 0
	if maxRetries > 0 {
		pred = c.mgr.PredictStep(cycles)
		if pred > steps {
			pred = steps
		}
		if pred < 0 {
			pred = 0
		}
	}
	var order [maxLadderSlots]int
	order[0] = pred
	n := 1
	for k := 0; k <= steps; k++ {
		if k != pred {
			order[n] = k
			n++
		}
	}
	if maxRetries < 0 {
		maxRetries = 0
	}
	if n > maxRetries+1 {
		n = maxRetries + 1
	}
	// Soft-decision rung: available only when the budget extends past
	// the full hard ladder — it is the rung after the deepest reference
	// shift, never a substitute for one. A capped budget (e.g. the
	// FTL's disturb-aware retry guard) therefore skips the multi-sense
	// walk entirely.
	softAttempts := 0
	if rem := maxRetries + 1 - n; rem > 0 && c.codec.SupportsSoft() {
		softAttempts = min(c.softRetries, rem)
	}
	capHint := n + softAttempts

	var level int
	attempt := 0
	for ; attempt < n; attempt++ {
		step := order[attempt]
		nData, nSpare, rerr := c.dev.ReadInto(blockIdx, pageIdx, step, c.readBuffer)
		if rerr != nil {
			return res, rerr
		}
		if attempt == 0 {
			level, err = c.codec.LevelForSpare(nSpare)
			if err != nil {
				return res, fmt.Errorf("controller: page %d.%d spare (%d bytes) does not map to a supported capability: %w",
					blockIdx, pageIdx, nSpare, err)
			}
			res.T = level
		}
		codeword := c.readBuffer[:nData+nSpare]
		var nErr int
		var decErr error
		if seq, flips := c.dev.LastSense(); seq != 0 && c.cleanSeq[blockIdx*c.dev.PagesPerBlock()+pageIdx] == seq {
			// Sensed decode: the buffer is this controller's codeword
			// with exactly the device's reported flips inverted, so the
			// codec decodes from the positions; the count, error and
			// corrected bytes are Decode's.
			if flips == 0 {
				c.cleanHits++
			}
			nErr, decErr = c.codec.DecodeSensed(level, codeword, c.dev.LastSenseFlips())
		} else {
			nErr, decErr = c.codec.Decode(level, codeword)
		}

		// A successful decode's cost is booked at the observed error
		// weight (measured min-sum iterations for LDPC); a failure pays
		// the worst-case estimate.
		decLat := c.codec.DecodeLatency(level, false)
		if decErr == nil {
			decLat = c.codec.MeasuredDecodeLatency(level, nErr)
		}
		stage := ReadLatency{
			TR:       nand.PageReadTime,
			Transfer: c.bus.Transfer(len(codeword)),
			Decode:   decLat,
		}
		res.noteStage(step, false, 1, attempt, capHint, stage)

		if decErr == nil {
			res.Corrected = nErr
			res.Data = claimData(dst, codeword[:nData])
			c.mgr.ObserveDecode(res.Alg, c.codewordBits(level), nErr)
			c.mgr.ObserveRetry(cycles, step, attempt, true)
			c.noteBlockReads(blockIdx, &res)
			return res, nil
		}
		if attempt == n-1 && softAttempts == 0 {
			// Budget exhausted: surface the final attempt's raw data.
			res.Data = claimData(dst, codeword[:nData])
		}
	}

	// Final rung: soft-sense reads feeding the soft-input decoder. The
	// multi-sense read centers one step short of the deepest reference
	// shift (its component senses bracket the center, covering the deep
	// end of the ladder) — the region retention drift pushed the cells
	// into, which is the regime the soft path exists for. Repeat
	// attempts escalate adaptively: each min-sum failure widens the
	// next read by one bracket pair (3→5→7 senses with the defaults, up
	// to the device's SoftSensesMax), paying the wider read's full
	// sensing time and disturb stress.
	softStep := steps - 1
	if softStep < 0 {
		softStep = 0
	}
	stress := c.dev.Stress()
	softBase := stress.SoftSenses
	if softBase < 1 {
		softBase = 1
	}
	for s := 0; s < softAttempts; s, attempt = s+1, attempt+1 {
		want := softBase + 2*s // ReadSoftN clamps at the device's cap
		nData, nSpare, senses, rerr := c.dev.ReadSoftN(blockIdx, pageIdx, softStep, want, c.readBuffer, c.llrBuffer)
		if rerr != nil {
			return res, rerr
		}
		codeword := c.readBuffer[:nData+nSpare]
		nErr, decErr := c.codec.DecodeSoft(level, codeword, c.llrBuffer[:(nData+nSpare)*8])

		stage := ReadLatency{
			TR:       time.Duration(senses) * nand.PageReadTime,
			Transfer: time.Duration(senses) * c.bus.Transfer(len(codeword)),
			Decode:   c.codec.SoftDecodeLatency(level),
		}
		res.noteStage(softStep, true, senses, attempt, capHint, stage)

		if decErr == nil {
			res.Corrected = nErr
			res.Data = claimData(dst, codeword[:nData])
			c.mgr.ObserveDecode(res.Alg, c.codewordBits(level), nErr)
			c.mgr.ObserveRetry(cycles, softStep, attempt, true)
			c.mgr.ObserveSoft(true)
			c.noteBlockReads(blockIdx, &res)
			return res, nil
		}
		c.mgr.ObserveSoft(false)
		if s == softAttempts-1 {
			res.Data = claimData(dst, codeword[:nData])
		}
	}

	c.mgr.ObserveUncorrectable()
	c.mgr.ObserveRetry(cycles, res.AppliedOffset, res.Retries, false)
	c.noteBlockReads(blockIdx, &res)
	return res, fmt.Errorf("%w: block %d page %d (after %d retries)",
		ErrUncorrectable, blockIdx, pageIdx, res.Retries)
}

// noteBlockReads attaches the block's post-read disturb counter to the
// result (upstream retry guards budget against it without a separate
// control-plane hop).
func (c *Controller) noteBlockReads(blockIdx int, res *ReadResult) {
	if r, err := c.dev.BlockReads(blockIdx); err == nil {
		res.BlockReads = r
	}
}

// codewordBits resolves the codeword length for telemetry; level is
// always valid here (it decoded a parity geometry already).
func (c *Controller) codewordBits(level int) int {
	n, err := c.codec.CodewordBits(level)
	if err != nil {
		return c.codec.DataBits()
	}
	return n
}

// ReadRetry returns the configured recovery ladder budget.
func (c *Controller) ReadRetry() int { return c.maxRetries }

// EraseBlock erases a device block through the controller.
func (c *Controller) EraseBlock(blockIdx int) error {
	return c.dev.Erase(blockIdx)
}
