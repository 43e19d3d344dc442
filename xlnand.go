// Package xlnand is a simulation library for cross-layer
// reliability/performance trade-offs in MLC NAND flash memories,
// reproducing Zambelli et al., "A Cross-Layer Approach for New
// Reliability-Performance Trade-Offs in MLC NAND Flash Memories"
// (DATE 2012), grown into a batched, multi-die storage sub-system.
//
// The library models the full memory sub-system: 2-bit/cell NAND dies
// with runtime-selectable program algorithm (standard ISPP-SV vs
// double-verify ISPP-DV), an adaptive BCH codec protecting 4 KB pages
// with correction capability t programmable in [3, 65] over GF(2^16), the
// high-voltage charge-pump power model, and a memory controller with a
// self-adaptive reliability manager. On top of these it exposes the
// paper's three cross-layer service levels:
//
//   - ModeNominal — ISPP-SV with the ECC sized for the SV error rate
//     (the conventional baseline);
//   - ModeMinUBER — switch the physical layer to ISPP-DV while keeping
//     the nominal ECC: orders-of-magnitude lower UBER at unchanged read
//     throughput (paper §6.3.1);
//   - ModeMaxRead — ISPP-DV with the ECC relaxed to just meet the UBER
//     target: up to ≈30% higher read throughput at end of life at
//     unchanged UBER (paper §6.3.2).
//
// Both cross-layer modes pay ≈40-48% write throughput (paper §6.3.3).
//
// # The queue API
//
// The primary I/O surface is batched, in the submission/completion-queue
// style of modern flash stacks. Open a sub-system with functional
// options, create a Queue, and submit batches of requests; a batch runs
// in request order on the submitting goroutine, its requests overlapping
// across the dies on a modelled timeline on which the shared flash bus
// and BCH codec serialise, so multi-die interleaving follows the same
// pipeline model the analytic ScaleDies evaluation predicts:
//
//	sys, _ := xlnand.Open(xlnand.WithDies(4), xlnand.WithBlocks(8))
//	defer sys.Close()
//	q := sys.NewQueue()
//	comps, err := q.Submit(ctx, []xlnand.Request{
//		{Op: xlnand.OpWrite, Die: 0, Block: 0, Page: 0, Data: page},
//		{Op: xlnand.OpRead, Die: 1, Block: 0, Page: 0},
//	})
//
// Every request may carry its own service level (Request.Mode) or pin
// an explicit ECC capability (Request.T), so heterogeneous traffic —
// critical min-UBER writes next to max-read streaming — shares one
// batch without any global mode toggling. Completions carry typed
// errors: errors.Is against ErrUncorrectable, ErrBadAddress and
// ErrClosed, with the full context in *OpError.
//
// # Read recovery
//
// Reads run through a staged recovery ladder: a failing decode re-senses
// the page at calibrated read-reference offsets (WithReadRetry sets the
// budget, Request.Retries overrides it per read), with the reliability
// manager caching the offset that worked per block-wear bucket so later
// reads start there. ReadResult reports the climate through Retries,
// AppliedOffset and the per-stage latency breakdown; every retry is
// charged on the modelled timeline. The pages and results Queue.Do and
// Storage.Read return belong to the caller: later reads never overwrite
// them. Queue.DoRead and Queue.DoWrite take a caller-owned buffer and
// result instead, and allocate nothing.
//
// # Codec families
//
// The ECC block behind the controller is selectable at Open time:
// WithCodec(CodecBCH) is the paper's adaptive hard-decision BCH (the
// default), WithCodec(CodecLDPC) swaps in a rate-compatible
// quasi-cyclic LDPC codec with normalized min-sum decoding. The LDPC
// family adds the recovery ladder's final rung: once a read's budget
// extends past every hard reference shift, the device performs a
// multi-sense soft read (per-bit confidence from bracketing senses,
// each component sense paying real tR, bus and disturb cost) and the
// soft-input decoder takes over — recovering pages no hard-decision
// path can, at a visible throughput price. WithSoftRetry configures
// that rung; ReadResult.Soft and Completion.SoftSenses report it.
//
// SelectMode installs the sub-system default level, and per-request
// Mode overrides it for one write; a capability pinned with
// SetCapability survives both SelectMode and the min-UBER write path.
//
// Evaluate operating points analytically with EvaluateMode, RequiredT
// and ParetoFront; the figures and tradeoff subcommands of cmd/xlnand
// regenerate every figure of the paper and its operating-point grid.
package xlnand

import (
	"fmt"
	"math"

	"xlnand/internal/controller"
	"xlnand/internal/dispatch"
	"xlnand/internal/ecc"
	"xlnand/internal/nand"
	"xlnand/internal/sim"
)

// CodecFamily selects the ECC family behind the controller.
type CodecFamily = ecc.Family

// Codec families for WithCodec.
const (
	// CodecBCH is the paper's adaptive hard-decision BCH codec
	// (capability level = correction capability t in [3, 65]).
	CodecBCH = ecc.FamilyBCH
	// CodecLDPC is the rate-compatible quasi-cyclic LDPC codec with
	// normalized min-sum decoding and a soft-decision read path
	// (capability level = rate index; six levels whose spare footprint
	// spans 72-224 B, an embedded CRC64 included).
	CodecLDPC = ecc.FamilyLDPC
)

// Algorithm selects the NAND program algorithm (the physical-layer knob).
type Algorithm = nand.Algorithm

// Program algorithm values.
const (
	ISPPSV = nand.ISPPSV // standard single-verify ISPP
	ISPPDV = nand.ISPPDV // double-verify ISPP (tighter distributions)
)

// Mode names the paper's cross-layer service levels.
type Mode = sim.Mode

// Service levels (§6.3).
const (
	ModeNominal = sim.ModeNominal
	ModeMinUBER = sim.ModeMinUBER
	ModeMaxRead = sim.ModeMaxRead
)

// config collects Open's resolved parameters.
type config struct {
	blocks        int
	dies          int
	seed          uint64
	targetUBERExp uint32
	readRetry     *int
	softRetry     *int
	family        ecc.Family
	bus           *nand.FlashBus
	hw            *codecHW
	trace         *Tracer
}

type codecHW struct {
	parallelismP int
	chienH       int
	clockHz      float64
}

// Option configures Open.
type Option interface {
	apply(*config)
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithBlocks sets the flash blocks per die (default 8; at least 1).
func WithBlocks(n int) Option { return optionFunc(func(c *config) { c.blocks = n }) }

// WithDies sets the number of NAND dies behind the controller (default
// 1). Array operations proceed in parallel across dies; the flash bus
// and the adaptive codec are shared and serialise.
func WithDies(n int) Option { return optionFunc(func(c *config) { c.dies = n }) }

// WithSeed drives all simulation randomness (default 1). Each die
// derives a decorrelated stream; die 0 matches the single-die behaviour
// for the same seed.
func WithSeed(seed uint64) Option { return optionFunc(func(c *config) { c.seed = seed }) }

// WithTargetUBER sets the reliability target as 10^-exp (default 11, the
// paper's 1e-11). Open rejects an exp whose target is not inside (0, 1):
// 0, and anything above 323, where 10^-exp underflows to 0.
func WithTargetUBER(exp uint32) Option {
	return optionFunc(func(c *config) { c.targetUBERExp = exp })
}

// WithReadRetry sets the read-recovery ladder budget: how many re-reads
// at shifted read references a failing decode may trigger before the
// read surfaces ErrUncorrectable (default 4; 0 restores the single-shot
// read path). Each retry pays the full tR + transfer + decode latency
// on the modelled timeline, and ReadResult reports the climate through
// Retries, AppliedOffset and the per-stage latency breakdown.
func WithReadRetry(n int) Option {
	return optionFunc(func(c *config) {
		if n < 0 {
			n = 0
		}
		c.readRetry = &n
	})
}

// WithCodec selects the ECC family the sub-system's shared codec
// implements (default CodecBCH, the paper's adaptive BCH block).
// CodecLDPC swaps in the soft-decision LDPC family: hard decodes run
// normalized min-sum, and once a read's budget extends past the full
// hard-decision recovery ladder (see WithReadRetry), the final rung is
// a multi-sense soft read feeding the soft-input decoder — each
// component sense paying real tR, bus and disturb cost on the modelled
// timeline. Reads always decode at the capability level recovered from
// the stored parity geometry, so the two families never mix within one
// sub-system instance.
func WithCodec(f CodecFamily) Option {
	return optionFunc(func(c *config) { c.family = f })
}

// WithSoftRetry sets the soft-decision rung budget: how many soft-sense
// decode attempts may follow an exhausted hard ladder (default 1; 0
// disables the soft rung). It has no effect on codec families without a
// soft path (BCH).
func WithSoftRetry(n int) Option {
	return optionFunc(func(c *config) {
		if n < 0 {
			n = 0
		}
		c.softRetry = &n
	})
}

// BusConfig describes the flash interface between controller and dies.
type BusConfig struct {
	WidthBits int     // data width (8 in the paper's asynchronous interface)
	ClockHz   float64 // interface cycle rate
}

// WithBus replaces the default 8-bit 33 MHz flash interface — e.g. an
// ONFI-style DDR bus for configurations where die interleaving should
// not saturate on transfers. The analytic evaluations (EvaluateMode,
// ScaleDies) follow the same bus. Open rejects a width below 1 and a
// clock that is not a positive finite rate.
func WithBus(b BusConfig) Option {
	return optionFunc(func(c *config) {
		c.bus = &nand.FlashBus{WidthBits: b.WidthBits, ClockHz: b.ClockHz}
	})
}

// WithCodecHW rescales the adaptive codec's micro-architecture: datapath
// width p (bits/cycle), Chien-search parallelism h and clock rate. The
// default is the paper's p=8, h=32 at 80 MHz; wider/faster instances
// keep the shared decoder from bounding multi-die read interleaving.
// Open rejects p or h below 1 and a clock that is not a positive finite
// rate.
func WithCodecHW(p, h int, clockHz float64) Option {
	return optionFunc(func(c *config) {
		c.hw = &codecHW{parallelismP: p, chienH: h, clockHz: clockHz}
	})
}

// Subsystem is an open simulated NAND memory sub-system: one or more
// dies behind a controller with adaptive codec, reliability manager and
// the multi-die dispatcher.
type Subsystem struct {
	disp *dispatch.Dispatcher
	env  sim.Env
}

// Open builds a simulated sub-system. With no options it gives the
// paper's baseline configuration (one die, 8 blocks, adaptive ECC,
// UBER target 1e-11).
func Open(opts ...Option) (*Subsystem, error) {
	cfg := config{blocks: 8, dies: 1, seed: 1, targetUBERExp: 11}
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.blocks < 1 {
		return nil, fmt.Errorf("xlnand: block count %d < 1", cfg.blocks)
	}
	if cfg.dies < 1 {
		return nil, fmt.Errorf("xlnand: die count %d < 1", cfg.dies)
	}
	env := sim.DefaultEnv()
	if cfg.bus != nil {
		if cfg.bus.WidthBits <= 0 || !positiveFinite(cfg.bus.ClockHz) {
			return nil, fmt.Errorf("xlnand: invalid bus config %+v", *cfg.bus)
		}
		env.Bus = *cfg.bus
	}
	if cfg.hw != nil {
		if cfg.hw.parallelismP <= 0 || cfg.hw.chienH <= 0 || !positiveFinite(cfg.hw.clockHz) {
			return nil, fmt.Errorf("xlnand: invalid codec hardware config %+v", *cfg.hw)
		}
		env.HW.ParallelismP = cfg.hw.parallelismP
		env.HW.ChienParallelismH = cfg.hw.chienH
		env.HW.ClockHz = cfg.hw.clockHz
	}
	env.TargetUBER = math.Pow10(-int(cfg.targetUBERExp))
	if env.TargetUBER <= 0 || env.TargetUBER >= 1 {
		return nil, fmt.Errorf("xlnand: UBER target 10^-%d is outside (0, 1)", cfg.targetUBERExp)
	}

	ctrlCfg := controller.DefaultConfig()
	ctrlCfg.TargetUBERExp = cfg.targetUBERExp
	ctrlCfg.Bus = env.Bus
	if cfg.readRetry != nil {
		ctrlCfg.MaxRetries = *cfg.readRetry
	}
	if cfg.softRetry != nil {
		ctrlCfg.SoftRetries = *cfg.softRetry
	}

	disp, err := dispatch.New(dispatch.Config{
		Dies:         cfg.dies,
		BlocksPerDie: cfg.blocks,
		Seed:         cfg.seed,
		Env:          env,
		Controller:   ctrlCfg,
		Family:       cfg.family,
		Trace:        cfg.traceProc(),
	})
	if err != nil {
		return nil, err
	}
	return &Subsystem{disp: disp, env: env}, nil
}

// positiveFinite reports whether a clock rate is usable: a NaN or
// infinite rate would make its pipeline stage free.
func positiveFinite(hz float64) bool { return hz > 0 && !math.IsInf(hz, 1) }

// Close shuts the sub-system. Submissions after Close fail with
// ErrClosed; in-flight operations complete first. Close is idempotent.
func (s *Subsystem) Close() error { return s.disp.Close() }

// PageSize returns the user payload per page in bytes (4096).
func (s *Subsystem) PageSize() int { return s.env.Cal.PageDataBytes }

// Dies returns the number of NAND dies.
func (s *Subsystem) Dies() int { return s.disp.Geometry().Dies }

// Blocks returns the number of flash blocks per die.
func (s *Subsystem) Blocks() int { return s.disp.Geometry().BlocksPerDie }

// PagesPerBlock returns the pages per block.
func (s *Subsystem) PagesPerBlock() int { return s.disp.Geometry().PagesPerBlock }

// SelectMode installs one of the paper's service levels as the
// sub-system default; per-request Mode values override it. A capability
// pinned with SetCapability survives mode switches — call
// SetAdaptive(true) to hand control back to the reliability manager.
func (s *Subsystem) SelectMode(m Mode) error {
	switch m {
	case ModeNominal, ModeMinUBER, ModeMaxRead:
		s.disp.SetDefaultMode(m)
		return nil
	default:
		return fmt.Errorf("xlnand: unknown mode %d", int(m))
	}
}

// Mode returns the currently selected default service level.
func (s *Subsystem) Mode() Mode { return s.disp.DefaultMode() }

// SetCapability pins the ECC correction capability, disabling the
// reliability manager until SetAdaptive(true) re-enables it. The pin
// survives SelectMode and the min-UBER write path.
func (s *Subsystem) SetCapability(t int) { s.disp.PinCapability(t) }

// SetAdaptive toggles the reliability manager: true releases any pinned
// capability; false freezes capability selection — at the already-pinned
// value if SetCapability chose one, otherwise at the worst case.
func (s *Subsystem) SetAdaptive(on bool) {
	if on {
		s.disp.Unpin()
	} else if s.disp.PinnedT() < 0 {
		s.disp.PinCapability(s.disp.Codec().MaxLevel())
	}
}

// WriteResult reports a page write.
type WriteResult = controller.WriteResult

// ReadResult reports a page read.
type ReadResult = controller.ReadResult

// AgeBlock fast-forwards a block's program/erase wear to the given
// cycle count, so lifetime behaviour can be studied without replaying
// millions of operations.
func (s *Subsystem) AgeBlock(die, block int, cycles float64) error {
	return s.disp.SetCycles(die, block, cycles)
}
