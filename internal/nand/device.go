package nand

import (
	"fmt"
	"math"
	"time"

	"xlnand/internal/stats"
)

// Device is the functional NAND flash device the memory controller
// drives: pages of raw bytes organised in blocks, with erase-before-
// program discipline, per-block program/erase wear and a fault-injection
// read path driven by the analytic RBER model. The program algorithm is
// runtime-selectable per operation — the physical-layer knob this paper
// introduces (§5: in current devices it is "set at fabrication time and
// hardwired"; here the code-ROM holds both routines).
//
// Device methods are not safe for concurrent use; the controller owns it.
type Device struct {
	cal    Calibration
	stress StressConfig
	rng    *stats.RNG
	blocks []block

	// clockHours is the device's retention clock, advanced explicitly by
	// AdvanceTime so lifetime studies can bake stored data.
	clockHours float64

	// timing observed by the last operation (for the controller's
	// busy/ready modelling)
	lastOpDuration time.Duration

	// errPos is the soft read's error-position scratch, reused read over
	// read (Device is single-goroutine by contract).
	errPos []int

	// programSeq stamps stored page contents: it increments on every
	// Program, so a content identity (page.seq) is never reused even
	// across erase/re-program of the same page. Controllers use the
	// stamp to prove a sensed page still holds the codeword they
	// programmed (the sensed decode, ecc.Codec.DecodeSensed).
	programSeq uint64

	// senseFlips and lastSenseSeq describe the most recent ReadInto: the
	// bit positions the fault-injection path flipped, in codeword bit
	// numbering (data bits first, spare bits offset by 8·nData), and the
	// content stamp of the page it sensed. senseFlips is reused read
	// over read.
	senseFlips   []int
	lastSenseSeq uint64

	// freeData and freeSpare hold the page stores Erase released, each
	// list bounded by freeStores, for Program to fill again. They are
	// separate because one merged slice would land in a size class well
	// above the page. Stored bytes never leave the device (every sense
	// copies out of them), so a released store has no other holder.
	freeData, freeSpare [][]byte
}

// freeStores bounds each of the device's free lists: enough to carry a
// frontier block's first programs after an erase. Longer lists cut
// allocation further but hold erased pages resident, which raised peak
// RSS on lifetime runs; at this bound it holds level.
const freeStores = 16

type block struct {
	cycles float64 // program/erase cycles endured
	reads  float64 // reads since last erase (read-disturb stress)
	pages  []page
}

type page struct {
	data    []byte // nil until programmed
	spare   []byte
	written bool
	// seq is the device-wide program stamp of the stored content.
	seq uint64
	// algorithm used when the page was programmed; determines its RBER
	alg Algorithm
	// retention clock value at program time
	writtenAtHours float64
}

// NewDevice builds a device with the given number of blocks.
func NewDevice(cal Calibration, blocks int, seed uint64) *Device {
	d := &Device{cal: cal, stress: DefaultStressConfig(), rng: stats.NewRNG(seed)}
	d.blocks = make([]block, blocks)
	for i := range d.blocks {
		d.blocks[i].pages = make([]page, cal.PagesPerBlock)
	}
	return d
}

// AdvanceTime moves the retention clock forward, baking every stored
// page (paper §1's data-retention mechanism [4]).
func (d *Device) AdvanceTime(hours float64) {
	if hours > 0 {
		d.clockHours += hours
	}
}

// BlockReads returns a block's read count since its last erase.
func (d *Device) BlockReads(blockIdx int) (float64, error) {
	if blockIdx < 0 || blockIdx >= len(d.blocks) {
		return 0, fmt.Errorf("nand: block %d out of range", blockIdx)
	}
	return d.blocks[blockIdx].reads, nil
}

// Calibration returns the device's calibration constants.
func (d *Device) Calibration() Calibration { return d.cal }

// Blocks returns the number of blocks.
func (d *Device) Blocks() int { return len(d.blocks) }

// PagesPerBlock returns the pages per block.
func (d *Device) PagesPerBlock() int { return d.cal.PagesPerBlock }

// Cycles returns the program/erase cycle count of a block.
func (d *Device) Cycles(blockIdx int) (float64, error) {
	if blockIdx < 0 || blockIdx >= len(d.blocks) {
		return 0, fmt.Errorf("nand: block %d out of range", blockIdx)
	}
	return d.blocks[blockIdx].cycles, nil
}

// SetCycles pre-ages a block (lifetime experiments fast-forward wear
// without replaying a million programs). The count must be finite and
// non-negative.
func (d *Device) SetCycles(blockIdx int, cycles float64) error {
	if blockIdx < 0 || blockIdx >= len(d.blocks) {
		return fmt.Errorf("nand: block %d out of range", blockIdx)
	}
	if !(cycles >= 0) || math.IsInf(cycles, 1) {
		return fmt.Errorf("nand: invalid cycle count %g", cycles)
	}
	d.blocks[blockIdx].cycles = cycles
	return nil
}

// LastOpDuration returns the modelled duration of the most recent
// operation (program: full ISPP run; read: array-to-register time tR;
// erase: block erase time).
func (d *Device) LastOpDuration() time.Duration { return d.lastOpDuration }

// Erase wipes a block, incrementing its wear.
func (d *Device) Erase(blockIdx int) error {
	if blockIdx < 0 || blockIdx >= len(d.blocks) {
		return fmt.Errorf("nand: block %d out of range", blockIdx)
	}
	b := &d.blocks[blockIdx]
	for i := range b.pages {
		p := &b.pages[i]
		d.freeData = release(d.freeData, p.data)
		d.freeSpare = release(d.freeSpare, p.spare)
		*p = page{}
	}
	b.cycles++
	b.reads = 0 // erase heals read-disturb stress
	d.lastOpDuration = d.cal.TEraseOp
	return nil
}

// pageAt validates and returns a page pointer.
func (d *Device) pageAt(blockIdx, pageIdx int) (*page, *block, error) {
	if blockIdx < 0 || blockIdx >= len(d.blocks) {
		return nil, nil, fmt.Errorf("nand: block %d out of range", blockIdx)
	}
	b := &d.blocks[blockIdx]
	if pageIdx < 0 || pageIdx >= len(b.pages) {
		return nil, nil, fmt.Errorf("nand: page %d out of range", pageIdx)
	}
	return &b.pages[pageIdx], b, nil
}

// Program writes data+spare into a page using the selected algorithm.
// The page must be erased (never re-programmed without erase). The
// modelled duration comes from the ISPP timing statistics for the
// algorithm at the block's wear.
func (d *Device) Program(blockIdx, pageIdx int, data, spare []byte, alg Algorithm) (ProgramResult, error) {
	p, b, err := d.pageAt(blockIdx, pageIdx)
	if err != nil {
		return ProgramResult{}, err
	}
	if p.written {
		return ProgramResult{}, fmt.Errorf("nand: page %d.%d programmed twice without erase", blockIdx, pageIdx)
	}
	if len(data) > d.cal.PageDataBytes {
		return ProgramResult{}, fmt.Errorf("nand: data %d bytes exceeds page size %d", len(data), d.cal.PageDataBytes)
	}
	if len(spare) > d.cal.PageSpareBytes {
		return ProgramResult{}, fmt.Errorf("nand: spare %d bytes exceeds spare area %d", len(spare), d.cal.PageSpareBytes)
	}
	var store []byte
	store, d.freeData = reuse(d.freeData)
	p.data = append(store, data...)
	store, d.freeSpare = reuse(d.freeSpare)
	p.spare = append(store, spare...)
	p.written = true
	d.programSeq++
	p.seq = d.programSeq
	p.alg = alg
	p.writtenAtHours = d.clockHours
	res := EstimateProgram(d.cal, alg, d.cal.Age(b.cycles))
	d.lastOpDuration = res.Duration
	return res, nil
}

// release puts an erased page's store on a free list unless the list is
// full (or the page was never programmed).
func release(free [][]byte, store []byte) [][]byte {
	if store == nil || len(free) == freeStores {
		return free
	}
	return append(free, store[:0])
}

// reuse pops an empty store off a free list; nil when the list is empty,
// so the caller's append allocates.
func reuse(free [][]byte) (store []byte, rest [][]byte) {
	n := len(free)
	if n == 0 {
		return nil, free
	}
	store, free[n-1] = free[n-1], nil
	return store, free[:n-1]
}

// WrittenAlgorithm returns the program algorithm a page was written with
// (controllers key their per-algorithm RBER telemetry on this).
func (d *Device) WrittenAlgorithm(blockIdx, pageIdx int) (Algorithm, error) {
	p, _, err := d.pageAt(blockIdx, pageIdx)
	if err != nil {
		return 0, err
	}
	if !p.written {
		return 0, fmt.Errorf("nand: page %d.%d not written", blockIdx, pageIdx)
	}
	return p.alg, nil
}

// RetrySteps returns the calibrated read-retry ladder depth.
func (d *Device) RetrySteps() int { return d.stress.RetrySteps }

// Stress returns the device's stress model configuration.
func (d *Device) Stress() StressConfig { return d.stress }

// SetStress replaces the stress model (tests and ablations).
func (d *Device) SetStress(s StressConfig) { d.stress = s }

// ReadInto senses a page at read-retry ladder step (0 = the nominal
// references; higher steps shift the references per the calibrated
// retry model, recovering retention-drift errors) with bit errors
// injected per the analytic RBER of the algorithm the page was written
// with, at the block's current wear and retention age. It writes data
// followed immediately by spare into buf — exactly the codeword layout
// the controller decodes — and returns the two lengths. buf must hold
// len(data)+len(spare) bytes; PageDataBytes+PageSpareBytes always
// suffices. Every sense, retries included, counts against the block's
// read-disturb stress and pays one tR (PageReadTime).
func (d *Device) ReadInto(blockIdx, pageIdx, step int, buf []byte) (nData, nSpare int, err error) {
	p, b, err := d.pageAt(blockIdx, pageIdx)
	if err != nil {
		return 0, 0, err
	}
	if !p.written {
		return 0, 0, fmt.Errorf("nand: read of unwritten page %d.%d", blockIdx, pageIdx)
	}
	if step < 0 {
		return 0, 0, fmt.Errorf("nand: negative read-retry step %d", step)
	}
	nData, nSpare = len(p.data), len(p.spare)
	if len(buf) < nData+nSpare {
		return 0, 0, fmt.Errorf("nand: read buffer %d bytes, page %d.%d needs %d",
			len(buf), blockIdx, pageIdx, nData+nSpare)
	}
	b.reads++
	rber := d.cal.RecoveredRBER(d.stress, p.alg, b.cycles, b.reads,
		d.clockHours-p.writtenAtHours, step)
	d.senseFlips = d.senseFlips[:0]
	d.corruptInto(buf[:nData], p.data, rber, 0)
	d.corruptInto(buf[nData:nData+nSpare], p.spare, rber, 8*nData)
	d.lastSenseSeq = p.seq
	d.lastOpDuration = PageReadTime
	return nData, nSpare, nil
}

// LastProgramSeq returns the content stamp of the most recent Program.
func (d *Device) LastProgramSeq() uint64 { return d.programSeq }

// LastSense reports the most recent ReadInto: the content stamp of the
// page it sensed and the number of bit errors injected into the
// returned buffer. flips == 0 means the buffer is byte-identical to the
// stored content — the observation the controller's CleanHits counts.
func (d *Device) LastSense() (seq uint64, flips int) {
	return d.lastSenseSeq, len(d.senseFlips)
}

// LastSenseFlips returns the bit positions the most recent ReadInto
// inverted, in the codeword bit numbering of the buffer it filled: bit
// i is the MSB-first bit i%8 of byte i/8, so data bits are
// 0 … 8·nData−1 and spare bits follow from 8·nData. The positions are
// distinct; together with a LastSense stamp that matches a page's
// program, they are exactly how the buffer differs from the stored
// codeword. The slice is the device's scratch, valid until the next
// ReadInto, and must not be modified.
func (d *Device) LastSenseFlips() []int { return d.senseFlips }

// corruptInto copies src into dst (equal length) and flips each bit
// independently with probability rber: the binomial error count is
// sampled, then positions drawn uniformly and appended to senseFlips,
// offset by base. SampleKAppend only consults the values it appends
// itself, so the draw consumes the same RNG stream as a fresh SampleK
// and injected error patterns do not depend on what precedes them.
func (d *Device) corruptInto(dst, src []byte, rber float64, base int) {
	copy(dst, src)
	nbits := len(src) * 8
	if nbits == 0 {
		return
	}
	nerr := d.rng.Binomial(nbits, rber)
	start := len(d.senseFlips)
	d.senseFlips = d.rng.SampleKAppend(d.senseFlips, nbits, nerr)
	for i, pos := range d.senseFlips[start:] {
		dst[pos/8] ^= 1 << uint(7-pos%8)
		d.senseFlips[start+i] = base + pos
	}
}

// EstimateProgram returns the expected program-operation statistics for
// the algorithm at the given wear without running the Monte-Carlo array:
// a deterministic closed-form twin of the ISPP engine used on the fast
// device path (its constants are validated against the array simulator in
// the package tests).
func EstimateProgram(cal Calibration, alg Algorithm, aged AgedParams) ProgramResult {
	// Pulses to bring the slowest target level (L3) to verify: ramp from
	// the first landing (VStart - K) to VFY3, plus the slow-cell tail.
	firstLand := cal.VStart - cal.KOffsetMu
	span := cal.VFY[2] - firstLand + 3*cal.KOffsetSigma + 2*aged.KSlowTail
	pulses := int(span/cal.DeltaISPP) + 2
	// DV: cells cross the last DVPreOffset volts in fine steps, and
	// wear-induced injection noise makes them dither around the
	// pre-verify threshold, lengthening the fine phase.
	fine := cal.DeltaISPP * cal.DVStepFactor
	dvExtra := (cal.DVPreOffset/fine - cal.DVPreOffset/cal.DeltaISPP) *
		(1 + cal.DVAgingTimeCoef*aged.Wear)
	if alg == ISPPDV {
		pulses += int(dvExtra + 0.5)
	}
	if mp := cal.MaxPulses(); pulses > mp {
		pulses = mp
	}
	// Verify ops: levels deactivate as the ramp passes them. Level Li
	// stays active for roughly (VFYi - firstLand)/Delta pulses.
	verifies := 0
	for _, vfy := range cal.VFY {
		lv := int((vfy-firstLand+3*cal.KOffsetSigma+2*aged.KSlowTail)/cal.DeltaISPP) + 1
		if alg == ISPPDV {
			lv += int(dvExtra + 0.5)
		}
		if lv > pulses {
			lv = pulses
		}
		verifies += lv
	}
	res := ProgramResult{
		Algorithm: alg,
		Pulses:    pulses,
		Verifies:  verifies,
		MaxVCG:    cal.VStart + float64(pulses-1)*cal.DeltaISPP,
	}
	dur := cal.TLoad + time.Duration(pulses)*cal.TPulse + time.Duration(verifies)*cal.TVerify
	if alg == ISPPDV {
		res.PreVerifies = verifies
		dur += time.Duration(verifies) * cal.TVerify
	}
	res.Duration = dur
	return res
}
