// Package dispatch makes multi-die execution real: it routes queued I/O
// requests to N NAND dies while serialising the two resources the dies
// share — the flash bus and the adaptive BCH codec — on a modelled
// timeline that follows the nand package's timing constants
// (nand.FlashBus, nand.PageReadTime). The analytic multi-die pipeline of
// internal/sim (ScaleDies: array operations parallel across dies, bus
// and codec shared) thereby becomes measurable behaviour: a batch's
// completions carry virtual start/finish stamps whose makespan
// reproduces the model's steady-state throughput.
//
// Concurrency model: every request and every control call runs on the
// goroutine that issued it, under its die's mutex, so device state (page
// arrays, wear, fault-injection RNG) is never touched by two goroutines
// at once. A batch runs in request order, which makes its bookings on
// the shared calendars — and so its stamps — a function of the batch
// alone; goroutines working on different dies run in parallel. The BCH
// codec instance is shared across dies — it is safe for concurrent use
// and mirrors the single hardware codec of the paper's controller — and
// its serialisation, like the bus's, is modelled by a mutex-guarded
// virtual clock rather than by actual lock-step execution.
package dispatch

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"xlnand/internal/bch"
	"xlnand/internal/controller"
	"xlnand/internal/ecc"
	"xlnand/internal/ldpc"
	"xlnand/internal/nand"
	"xlnand/internal/obs"
	"xlnand/internal/sim"
)

// Trace thread ids within a dispatcher's trace process: the shared bus
// and codec get fixed lanes, dies start at traceTidDie0 (tid 3 is the
// FTL's). These are stable across runs (part of the byte-identical
// trace contract).
const (
	traceTidBus   = 1
	traceTidCodec = 2
	traceTidDie0  = 10
)

// vclock is a monotone virtual-time resource: acquire reserves dur
// starting no earlier than earliest, after any prior reservation has
// drained. It models a strictly FIFO unit — each die's command queue.
type vclock struct {
	mu     sync.Mutex
	freeAt time.Duration
}

func (v *vclock) acquire(earliest, dur time.Duration) (start, end time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	start = earliest
	if v.freeAt > start {
		start = v.freeAt
	}
	end = start + dur
	v.freeAt = end
	return start, end
}

// span is one busy interval on a calendar resource.
type span struct {
	start, end time.Duration
}

// maxCalendarSpans is the calendar's nominal span budget. Compaction is
// amortised: the slice may grow to twice this before the oldest spans
// are coalesced back down to the budget (one O(n) copy per ~n acquires
// instead of one per acquire at the cap), which only forfeits backfill
// opportunities (more serialisation, never double-booking).
const maxCalendarSpans = 4096

// calendar is a shared virtual-time resource with arbitration: acquire
// places dur into the earliest gap at or after earliest. Unlike vclock,
// reservation order does not bias the timeline — a die racing ahead
// in real time cannot push other dies' earlier-readiness transfers
// behind its own future ones, which is how a fair bus or codec arbiter
// behaves. Busy intervals are kept sorted and coalesced.
//
// The common case by far is a reservation at or past the calendar's
// high-water mark (the timeline mostly moves forward), for which the
// gap search provably returns [earliest, earliest+dur): one tail
// comparison detects that case up front and the critical section is a
// constant-time append — no scan, no span copying. Reservations behind
// the high-water mark (laggard dies backfilling) binary-search to the
// first span that can constrain them instead of walking the whole
// calendar.
type calendar struct {
	mu   sync.Mutex
	busy []span
}

func (c *calendar) acquire(earliest, dur time.Duration) (start, end time.Duration) {
	if dur <= 0 {
		return earliest, earliest
	}
	c.mu.Lock()
	if n := len(c.busy); n == 0 || c.busy[n-1].end <= earliest {
		// Fast path: nothing booked at or after earliest, so the search
		// below would scan past every span and book at earliest.
		start, end = earliest, earliest+dur
		if n > 0 && c.busy[n-1].end == start {
			c.busy[n-1].end = end
		} else {
			c.room()
			c.busy = append(c.busy, span{start, end})
		}
		c.compact()
		c.mu.Unlock()
		return start, end
	}
	defer c.mu.Unlock()
	start = earliest
	// Spans are disjoint and sorted, so their ends are increasing: skip
	// straight past everything that ends at or before the candidate —
	// those spans impose no constraint (the linear scan would `continue`
	// over each of them).
	lo := sort.Search(len(c.busy), func(i int) bool { return c.busy[i].end > earliest })
	idx := len(c.busy)
	for i := lo; i < len(c.busy); i++ {
		s := c.busy[i]
		if start+dur <= s.start {
			idx = i // fits in the gap before this span
			break
		}
		start = s.end // collides; try after this span
	}
	end = start + dur
	// Insert [start, end) at idx, coalescing with abutting neighbours.
	if idx > 0 && c.busy[idx-1].end == start {
		c.busy[idx-1].end = end
		if idx < len(c.busy) && c.busy[idx].start == end {
			c.busy[idx-1].end = c.busy[idx].end
			c.busy = append(c.busy[:idx], c.busy[idx+1:]...)
		}
	} else if idx < len(c.busy) && c.busy[idx].start == end {
		c.busy[idx].start = start
	} else {
		c.room()
		c.busy = append(c.busy, span{})
		copy(c.busy[idx+1:], c.busy[idx:])
		c.busy[idx] = span{start, end}
	}
	c.compact()
	return start, end
}

// room makes space for one more span. The slice doubles, up to exactly
// the compaction ceiling it never outgrows: append's own rule would take
// many more (and overshooting) steps to get there, and preallocating
// would cost every calendar that never fills.
func (c *calendar) room() {
	n := len(c.busy)
	if n < cap(c.busy) {
		return
	}
	grown := make([]span, n, min(max(2*n, 64), 2*maxCalendarSpans))
	copy(grown, c.busy)
	c.busy = grown
}

// compact coalesces the oldest spans into one once the calendar has
// doubled past its budget, copying the survivors down in place. Run
// under c.mu.
func (c *calendar) compact() {
	if len(c.busy) < 2*maxCalendarSpans {
		return
	}
	drop := len(c.busy) - maxCalendarSpans
	c.busy[drop] = span{c.busy[0].start, c.busy[drop].end}
	n := copy(c.busy, c.busy[drop:])
	c.busy = c.busy[:n]
}

// die bundles one NAND die with its controller and array clock. mu
// guards the controller and its device: every request and control call
// on the die holds it.
type die struct {
	ctrl  *controller.Controller
	clock vclock // array occupancy (sensing / program / erase)

	// trace is the die's span stream (nil when tracing is off). Appends
	// happen only inside execute, which always runs under mu — that
	// single-writer discipline is what keeps traced runs race-free. tid
	// is the die's thread lane in the trace process.
	trace *obs.Stream
	tid   int32

	mu sync.Mutex
}

// job is one request on its way through execute: the request, its
// arrival on the modelled timeline, and the caller's optional scratch —
// dst for the decoded page, rres/wres for the result breakdown — which
// spares the read and write paths every per-operation allocation.
type job struct {
	ctx     context.Context
	req     Request
	arrival time.Duration
	dst     []byte
	rres    *controller.ReadResult
	wres    *controller.WriteResult
}

// fail completes the job with err at its arrival, without touching the
// die.
func (j *job) fail(err error) Completion {
	req := j.req
	return Completion{
		Tag: req.Tag, Op: req.Op, Die: req.Die, Block: req.Block, Page: req.Page,
		Start: j.arrival, Finish: j.arrival, Err: opErr(req, err),
	}
}

// Config parametrises dispatcher construction.
type Config struct {
	Dies         int
	BlocksPerDie int
	Seed         uint64
	Env          sim.Env
	Controller   controller.Config
	// Family selects the shared codec's ECC family (the zero value is
	// the paper's adaptive BCH; ecc.FamilyLDPC builds the soft-decision
	// LDPC codec instead).
	Family ecc.Family
	// Trace, when non-nil, is the trace process this dispatcher's
	// virtual timeline is recorded into: every calendar booking (die
	// sense/program, bus transfer, codec encode/decode) becomes a span
	// stamped with the booked virtual interval, retry-ladder rungs and
	// soft-sense escalations carry step/sense arguments. Nil (the
	// default) compiles the hooks down to nil-stream no-ops.
	Trace *obs.Proc
}

// Dispatcher drives N dies behind shared bus and codec clocks.
type Dispatcher struct {
	env   sim.Env
	codec ecc.Codec
	dies  []*die

	bus      calendar
	codecClk calendar

	// policy holds the sub-system-wide defaults a request may override.
	policyMu    sync.Mutex
	defaultMode sim.Mode
	pinnedT     int  // pinned capability level; meaningful only when pinned
	pinned      bool // false = adaptive (reliability manager in charge)

	// vnow is the high-water mark of the modelled timeline; submissions
	// arrive at the current mark so synchronous callers never pipeline
	// with operations they already waited for.
	nowMu sync.Mutex
	vnow  time.Duration

	// closeMu is held for reading by every request, batch and control
	// call while it runs, and for writing by Close, which therefore
	// waits for them.
	closeMu sync.RWMutex
	closed  bool
}

// dieSeedStride decorrelates the per-die fault-injection RNG streams;
// die 0 adds 0·stride, so legacy single-die seeds reproduce the exact
// same fault-injection behaviour.
const dieSeedStride = 0x9e3779b97f4a7c15

// buildCodec constructs the shared adaptive codec for the configured
// family — the single hardware ECC block every die contends for.
func buildCodec(cfg Config) (ecc.Codec, error) {
	switch cfg.Family {
	case ecc.FamilyBCH:
		return bch.NewCodec(cfg.Env.M, cfg.Env.K, cfg.Env.TMin, cfg.Env.TMax, cfg.Env.HW)
	case ecc.FamilyLDPC:
		c, err := ldpc.NewPageCodec()
		if err != nil {
			return nil, err
		}
		return c, nil
	default:
		return nil, fmt.Errorf("dispatch: unknown codec family %d", int(cfg.Family))
	}
}

// New builds a dispatcher: one device + controller per die sharing a
// single adaptive codec.
func New(cfg Config) (*Dispatcher, error) {
	if cfg.Dies < 1 {
		return nil, fmt.Errorf("dispatch: die count %d < 1", cfg.Dies)
	}
	if cfg.BlocksPerDie < 0 {
		return nil, fmt.Errorf("dispatch: negative block count %d", cfg.BlocksPerDie)
	}
	codec, err := buildCodec(cfg)
	if err != nil {
		return nil, err
	}
	d := &Dispatcher{env: cfg.Env, codec: codec, defaultMode: sim.ModeNominal}
	if cfg.Trace != nil {
		cfg.Trace.Thread(traceTidBus, "bus")
		cfg.Trace.Thread(traceTidCodec, "codec")
	}
	for i := 0; i < cfg.Dies; i++ {
		dev := nand.NewDevice(cfg.Env.Cal, cfg.BlocksPerDie, cfg.Seed+uint64(i)*dieSeedStride)
		ctrl, err := controller.New(dev, codec, cfg.Controller)
		if err != nil {
			return nil, err
		}
		w := &die{ctrl: ctrl, tid: traceTidDie0 + int32(i)}
		if cfg.Trace != nil {
			cfg.Trace.Thread(w.tid, fmt.Sprintf("die %d", i))
			w.trace = cfg.Trace.Stream()
		}
		d.dies = append(d.dies, w)
	}
	return d, nil
}

// Close shuts the dispatcher. Submissions after Close fail with
// ErrClosed; in-flight operations complete first. Close is idempotent.
func (d *Dispatcher) Close() error {
	d.closeMu.Lock()
	d.closed = true
	d.closeMu.Unlock()
	return nil
}

// Geometry reports the driven configuration.
func (d *Dispatcher) Geometry() Geometry {
	cal := d.dies[0].ctrl.Device().Calibration()
	return Geometry{
		Dies:          len(d.dies),
		BlocksPerDie:  d.dies[0].ctrl.Device().Blocks(),
		PagesPerBlock: cal.PagesPerBlock,
		PageDataBytes: cal.PageDataBytes,
	}
}

// Env returns the analytic environment the dispatcher resolves modes
// against.
func (d *Dispatcher) Env() sim.Env { return d.env }

// Codec exposes the shared adaptive codec (one hardware ECC block for
// every die).
func (d *Dispatcher) Codec() ecc.Codec { return d.codec }

// Now returns the high-water mark of the modelled timeline.
func (d *Dispatcher) Now() time.Duration {
	d.nowMu.Lock()
	defer d.nowMu.Unlock()
	return d.vnow
}

func (d *Dispatcher) bumpNow(t time.Duration) {
	d.nowMu.Lock()
	if t > d.vnow {
		d.vnow = t
	}
	d.nowMu.Unlock()
}

// SetDefaultMode installs the sub-system default service level. A
// capability pinned via PinCapability survives mode switches (the
// manual-ECC contract).
func (d *Dispatcher) SetDefaultMode(m sim.Mode) {
	d.policyMu.Lock()
	d.defaultMode = m
	d.policyMu.Unlock()
}

// DefaultMode returns the current default service level.
func (d *Dispatcher) DefaultMode() sim.Mode {
	d.policyMu.Lock()
	defer d.policyMu.Unlock()
	return d.defaultMode
}

// PinCapability fixes the write capability level (manual ECC), silencing
// the reliability manager until Unpin. The level is clamped to the codec
// range (t for BCH, rate index for LDPC).
func (d *Dispatcher) PinCapability(t int) {
	d.policyMu.Lock()
	d.pinnedT = d.codec.ClampLevel(t)
	d.pinned = true
	d.policyMu.Unlock()
}

// Unpin returns capability selection to the reliability manager.
func (d *Dispatcher) Unpin() {
	d.policyMu.Lock()
	d.pinned = false
	d.policyMu.Unlock()
}

// PinnedT reports the manual capability level, or -1 when adaptive.
// (Level 0 is a valid pin for the LDPC family, so "nothing pinned"
// needs a value outside every family's level range.)
func (d *Dispatcher) PinnedT() int {
	d.policyMu.Lock()
	defer d.policyMu.Unlock()
	if !d.pinned {
		return -1
	}
	return d.pinnedT
}

func (d *Dispatcher) policySnapshot() (mode sim.Mode, pinnedT int, pinned bool) {
	d.policyMu.Lock()
	defer d.policyMu.Unlock()
	return d.defaultMode, d.pinnedT, d.pinned
}

// validate range-checks a request against the geometry.
func (d *Dispatcher) validate(req *Request) error {
	if req.Die < 0 || req.Die >= len(d.dies) {
		return fmt.Errorf("%w: die %d of %d", ErrBadAddress, req.Die, len(d.dies))
	}
	dev := d.dies[req.Die].ctrl.Device()
	if req.Block < 0 || req.Block >= dev.Blocks() {
		return fmt.Errorf("%w: block %d of %d", ErrBadAddress, req.Block, dev.Blocks())
	}
	if req.Op != OpErase && (req.Page < 0 || req.Page >= dev.PagesPerBlock()) {
		return fmt.Errorf("%w: page %d of %d", ErrBadAddress, req.Page, dev.PagesPerBlock())
	}
	return nil
}

// run validates one job and executes it on the caller's goroutine under
// its die's mutex. The caller holds closeMu for reading and has checked
// that the dispatcher is open.
func (d *Dispatcher) run(j *job) Completion {
	if err := d.validate(&j.req); err != nil {
		return j.fail(err)
	}
	w := d.dies[j.req.Die]
	w.mu.Lock()
	c := d.execute(w, j)
	w.mu.Unlock()
	d.bumpNow(c.Finish)
	return c
}

// resolveWrite turns policy + request overrides into the (algorithm,
// capability) pair for one write, per the paper's three service levels:
//
//   - explicit Request.T pins t for this write;
//   - a subsystem-wide pinned capability (manual ECC) comes next;
//   - min-UBER keeps the SV-sized capability while programming with DV;
//   - otherwise the die's reliability manager picks t for the wear.
func (d *Dispatcher) resolveWrite(w *die, req Request) (nand.Algorithm, int) {
	mode, pinnedT, pinned := d.policySnapshot()
	if req.Mode != nil {
		mode = *req.Mode
	}
	alg := nand.ISPPSV
	if mode != sim.ModeNominal {
		alg = nand.ISPPDV
	}
	cycles, err := w.ctrl.Device().Cycles(req.Block)
	if err != nil {
		cycles = 0
	}
	var t int
	switch {
	case req.T > 0:
		t = req.T
	case pinned:
		t = pinnedT
	case mode == sim.ModeMinUBER:
		t = d.requiredLevelSV(cycles)
	default:
		t = w.ctrl.Manager().SelectLevel(alg, cycles)
	}
	return alg, t
}

// requiredLevelSV resolves the min-UBER placement level: the capability
// the configured family needs for the *SV* error rate at this wear —
// kept while programming with DV, which is what buys the UBER margin.
// Family-aware: the BCH family reproduces the paper's t staircase, LDPC
// resolves a rate index against its own reliability model.
func (d *Dispatcher) requiredLevelSV(cycles float64) int {
	rber := d.env.Cal.RBER(nand.ISPPSV, cycles)
	lvl, err := d.codec.RequiredLevel(rber, d.env.TargetUBER)
	if err != nil {
		return d.codec.MaxLevel()
	}
	return d.codec.ClampLevel(lvl)
}

// execute runs one request on its die and books its pipeline stages
// onto the modelled timeline:
//
//	write: codec encode -> bus transfer -> die program
//	read:  die sensing (tR) -> bus transfer -> codec decode
//	erase: die occupancy only
//
// The die stage is private to the die; bus and codec stages contend
// with every other die, which is exactly the serialisation ScaleDies
// assumes.
func (d *Dispatcher) execute(w *die, j *job) Completion {
	req := j.req
	if err := j.ctx.Err(); err != nil {
		return j.fail(err)
	}
	comp := Completion{Tag: req.Tag, Op: req.Op, Die: req.Die, Block: req.Block, Page: req.Page}
	switch req.Op {
	case OpWrite:
		alg, t := d.resolveWrite(w, req)
		w.ctrl.SetAlgorithm(alg)
		w.ctrl.SetCapability(t)
		rp := j.wres
		if rp == nil {
			rp = new(controller.WriteResult)
		}
		res, err := w.ctrl.WritePage(req.Block, req.Page, req.Data)
		*rp = res
		comp.Write = rp
		comp.T, comp.Alg, comp.ParityBytes = res.T, res.Alg, res.ParityBy
		encS, encE := d.codecClk.acquire(j.arrival, res.Latency.Encode)
		busS, busE := d.bus.acquire(encE, res.Latency.Transfer)
		progS, progE := w.clock.acquire(busE, res.Latency.Program)
		comp.Start, comp.Finish = encS, progE
		if w.trace != nil {
			w.trace.Span1(traceTidCodec, "encode", encS, encE-encS, "t", int64(res.T))
			w.trace.Span(traceTidBus, "transfer", busS, busE-busS)
			w.trace.Span1(w.tid, "program", progS, progE-progS, "page", int64(req.Page))
		}
		if err != nil {
			comp.Err = opErr(req, err)
		}
	case OpRead:
		rp := j.rres
		if rp == nil {
			rp = new(controller.ReadResult)
		}
		retries := w.ctrl.ReadRetry()
		if req.Retries != nil {
			retries = *req.Retries
		}
		res, err := w.ctrl.ReadPageRetryInto(req.Block, req.Page, retries, j.dst)
		*rp = res
		comp.Read = rp
		comp.Data, comp.T, comp.Alg, comp.Corrected = res.Data, res.T, res.Alg, res.Corrected
		comp.Retries = res.Retries
		comp.SoftSenses = res.SoftSenses
		// Book every recovery-ladder stage on the calendars: each
		// re-sense occupies the die array again, each re-transfer the
		// shared bus, each re-decode the shared codec — so multi-die
		// throughput honestly degrades as the device ages into retries.
		cursor := j.arrival
		started := false
		rung := 0
		var start time.Duration
		book := func(st controller.ReadLatency, step int, soft bool, senses int) {
			senseS, senseE := w.clock.acquire(cursor, st.TR)
			busS, busE := d.bus.acquire(senseE, st.Transfer)
			decS, decE := d.codecClk.acquire(busE, st.Decode)
			if w.trace != nil {
				if !started && senseS > j.arrival {
					// Queue wait: the gap between request arrival and the
					// first sense actually starting on the die array.
					w.trace.Span(w.tid, "queue_wait", j.arrival, senseS-j.arrival)
				}
				if soft {
					w.trace.Span2(w.tid, "soft_sense", senseS, senseE-senseS, "step", int64(step), "senses", int64(senses))
				} else {
					w.trace.Span2(w.tid, "sense", senseS, senseE-senseS, "step", int64(step), "rung", int64(rung))
				}
				w.trace.Span(traceTidBus, "transfer", busS, busE-busS)
				w.trace.Span1(traceTidCodec, "decode", decS, decE-decS, "rung", int64(rung))
			}
			if !started {
				start, started = senseS, true
			}
			rung++
			cursor = decE
		}
		if len(res.Stages) == 0 {
			book(res.Latency, res.AppliedOffset, res.Soft, res.SoftSenses)
		} else {
			for _, st := range res.Stages {
				book(st.Latency, st.Step, st.Soft, st.Senses)
			}
		}
		comp.Start, comp.Finish = start, cursor
		if err != nil {
			comp.Err = opErr(req, err)
		}
	case OpErase:
		err := w.ctrl.EraseBlock(req.Block)
		var dur time.Duration
		if err == nil {
			dur = w.ctrl.Device().LastOpDuration()
		}
		s, e := w.clock.acquire(j.arrival, dur)
		comp.Start, comp.Finish = s, e
		if w.trace != nil {
			w.trace.Span1(w.tid, "erase", s, e-s, "block", int64(req.Block))
		}
		if err != nil {
			comp.Err = opErr(req, err)
		}
	default:
		return j.fail(fmt.Errorf("unknown op %d", int(req.Op)))
	}
	return comp
}

// control runs fn on the caller's goroutine with exclusive access to
// the die's controller and device (the race-free path for wear
// manipulation and statistics while traffic may be in flight). It fails
// with ErrClosed after Close.
func (d *Dispatcher) control(dieIdx int, fn func(*controller.Controller)) error {
	if dieIdx < 0 || dieIdx >= len(d.dies) {
		return fmt.Errorf("%w: die %d of %d", ErrBadAddress, dieIdx, len(d.dies))
	}
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	w := d.dies[dieIdx]
	w.mu.Lock()
	defer w.mu.Unlock()
	fn(w.ctrl)
	return nil
}

// each runs fn on every die's controller in die order, under the die's
// mutex. Unlike control it keeps working after Close: the counters its
// callers read stay valid once traffic has stopped.
func (d *Dispatcher) each(fn func(*controller.Controller)) {
	for _, w := range d.dies {
		w.mu.Lock()
		fn(w.ctrl)
		w.mu.Unlock()
	}
}

// Cycles returns a block's program/erase wear.
func (d *Dispatcher) Cycles(dieIdx, block int) (float64, error) {
	var cycles float64
	var cerr error
	err := d.control(dieIdx, func(c *controller.Controller) {
		cycles, cerr = c.Device().Cycles(block)
	})
	if err != nil {
		return 0, err
	}
	return cycles, cerr
}

// SetCycles fast-forwards a block's wear (lifetime studies).
func (d *Dispatcher) SetCycles(dieIdx, block int, cycles float64) error {
	var cerr error
	err := d.control(dieIdx, func(c *controller.Controller) {
		cerr = c.Device().SetCycles(block, cycles)
	})
	if err != nil {
		return err
	}
	return cerr
}

// AdvanceTime moves every die's retention clock forward. Zero and
// negative hours are a no-op; a non-finite duration is rejected before
// any die moves.
func (d *Dispatcher) AdvanceTime(hours float64) error {
	if math.IsNaN(hours) || math.IsInf(hours, 0) {
		return fmt.Errorf("dispatch: retention bake of %g hours", hours)
	}
	for i := range d.dies {
		if err := d.control(i, func(c *controller.Controller) {
			c.Device().AdvanceTime(hours)
		}); err != nil {
			return err
		}
	}
	return nil
}

// Controller exposes a die's controller for direct access. The
// caller must ensure no traffic is in flight on the die.
func (d *Dispatcher) Controller(dieIdx int) *controller.Controller {
	return d.dies[dieIdx].ctrl
}

// WithController runs fn on the caller's goroutine with exclusive access
// to the die's controller and device — the race-free window lifetime
// harnesses use for stress injection (raw disturb reads) and wear
// inspection while traffic may be in flight on other queues. fn must
// not call back into the dispatcher.
func (d *Dispatcher) WithController(dieIdx int, fn func(*controller.Controller)) error {
	return d.control(dieIdx, fn)
}

// PublishMetrics dumps the dispatcher's reliability counters into the
// registry under the given label set (labels is the pre-rendered
// `key="value"` block to scope the series, e.g. `drive="3"`, or ""
// for an unlabelled single-subsystem export). It takes each die's lock
// in turn, so it is safe while traffic is in flight, and it keeps
// working after Close.
func (d *Dispatcher) PublishMetrics(reg *obs.Registry, labels string) {
	if reg == nil {
		return
	}
	series := func(name string) string {
		if labels == "" {
			return name
		}
		return name + "{" + labels + "}"
	}
	var uncorrectable, softAttempts, softRecovered, retryRecovered int
	var cleanHits uint64
	d.each(func(c *controller.Controller) {
		m := c.Manager()
		uncorrectable += m.Uncorrectables()
		retryRecovered += m.Recovered()
		at, rec := m.SoftStats()
		softAttempts += at
		softRecovered += rec
		cleanHits += c.CleanHits()
	})
	reg.AddCounter(series("nand_reads_uncorrectable_total"), float64(uncorrectable))
	reg.AddCounter(series("nand_retry_recovered_total"), float64(retryRecovered))
	reg.AddCounter(series("nand_soft_attempts_total"), float64(softAttempts))
	reg.AddCounter(series("nand_soft_recovered_total"), float64(softRecovered))
	reg.AddCounter(series("nand_clean_reads_total"), float64(cleanHits))
	reg.SetGauge(series("dispatch_vtime_seconds"), d.Now().Seconds())
}

// CleanHits sums the controllers' clean-read counters (stamped reads
// sensed with no flips) across dies. It keeps working after Close.
func (d *Dispatcher) CleanHits() uint64 {
	var total uint64
	d.each(func(c *controller.Controller) {
		total += c.CleanHits()
	})
	return total
}
