// Package array is the fleet-scale front end over the single-drive
// stack: an Array stripes a volume address space across N independent
// drives (each the dispatcher + FTL pair ftl.Open builds, with its own
// seeded RNG streams from ftl.DriveSeed), serves reads through a
// host-side LRU cache, buffers writes in a write-back buffer that a
// round drains whole, in first-dirtied order, once it is three quarters
// full, and schedules tenants through token-bucket QoS.
// Cross-drive redundancy (rotating parity or mirroring), deterministic
// fault injection, degraded-mode operation, and background rebuild onto
// hot spares layer on top without giving up reproducibility.
//
// Determinism at scale is the design center. The front end runs in
// rounds: a single-threaded scheduler picks the round's ops, batches
// them per drive, the per-drive workers execute their batches
// concurrently, and a barrier joins them before any order-sensitive
// work (cache fills, parity math, telemetry merges, clock advance)
// happens — always in drive-index order, never completion order. Two
// runs with the same seed, submission sequence, and fault plan produce
// byte-identical fleet reports no matter how the goroutines interleave,
// even through drive deaths and rebuilds.
//
// # One round pipeline
//
// Every round, whatever the redundancy, runs the same stages (execRound)
// over its drive-bound actions, rebuild items first, then host actions
// in schedule order:
//
//	plan      reads wanted, writes placed, reconstructions laid out
//	phase 1   every planned read, plus the writes that need no input
//	resolve   reconstructions XORed into their result buffers
//	phase 2   reads a transient fault refused, re-served another way
//	phase 3   rebuild copies, then the writes that waited for phase 1
//	settle    per-home write outcomes, stale fences, loss accounting
//	phase 4   derived (parity) chunks, from the writes that landed
//
// A phase batches per drive (internal reads in first-want order, then
// host ops in schedule order), executes concurrently and joins at a
// barrier; a phase with no ops costs nothing. A write is staged in the
// earliest phase whose inputs it has: with no derived chunk to keep
// consistent it joins phase 1 in op order, so a later read of the page in
// the same round sees it on the drive; a write that dirties a derived
// chunk waits for the row's old data and parity, lands in phase 3, and
// later reads of its page in the round are forwarded host-side. All
// planning state is array-owned scratch, recycled every round.
//
// The layout (none, mirror, rotating parity) is a pure value that
// answers address questions only: where a page lives and so which slots
// a write must reach (homes), which chunks XOR back to a chunk (peers: a
// mirror partner is the one-component case, a parity row is every
// written peer), and which derived chunk a write dirties. A host read
// and a rebuild item reconstruct through the same path. Health, QoS and
// rebuild policy stay in the pipeline; a new scheme is a new layout
// value, not another executor.
//
// # Buffers and result lifetime
//
// A read that carries Op.Buf is decoded, copied or reconstructed into
// it and Result.Data aliases it in every mode: direct, mirror-partner,
// reconstructed, round-forwarded and cache-hit reads alike. Drain hands
// back an array-owned result slice, valid until the next Drain, Flush or
// Close.
//
// A write's page store is handed on, not dropped. Submit copies Op.Data
// (the caller may reuse it at once) into a store off the cache's spare
// list. With the cache on, the cache entry takes that store over, and an
// overwrite returns the replaced store to the spare list. An evicted
// entry's store goes back there at once if it is clean. A dirty victim's
// store, and a flush copy, rides its write-back and goes back once that
// write-back's round has executed. The spare list holds at most the
// cache's capacity, and no read result ever aliases a store on it.
package array

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"xlnand/internal/controller"
	"xlnand/internal/ecc"
	"xlnand/internal/obs"
	"xlnand/internal/sim"
)

// Host-process trace thread ids (the front end is trace pid 0; drives
// are pid index+1). Tenants get tids from hostTidTenant0 in declared
// order, the rebuild tenant last.
const (
	hostTidSched   = 0 // scheduling rounds and QoS stalls
	hostTidCache   = 1 // cache hits/misses
	hostTidRecov   = 2 // degraded-read reconstructions
	hostTidRebuild = 3 // rebuild progress
	hostTidTenant0 = 10
)

// hitLatency is the modelled host-side service time of a cache hit.
const hitLatency = time.Microsecond

// Config shapes an Array.
type Config struct {
	// Drives is the number of array slots (>= 1; parity needs >= 3,
	// mirror an even count >= 2).
	Drives int
	// DiesPerDrive and BlocksPerDie shape each drive (defaults 2 and 64).
	DiesPerDrive int
	BlocksPerDie int
	// Seed derives every drive's RNG streams (drive i runs at
	// ftl.DriveSeed(Seed, i)).
	Seed uint64
	// StripePages is the striping unit in volume pages (default 1:
	// consecutive pages land on consecutive drives).
	StripePages int
	// Redundancy selects cross-drive protection: "none" (default),
	// "parity" (RAID-5 rotating parity) or "mirror" (RAID-1 pairs).
	Redundancy string
	// Spares is the number of hot-spare drives standing by to replace
	// dead members (default 0). Spares only attach when Redundancy is
	// not "none" — without redundancy there is nothing to rebuild from.
	Spares int
	// Faults is the deterministic drive-fault schedule (zero = none).
	Faults FaultPlan
	// RebuildRate throttles background rebuild traffic, in pages per
	// modelled second through the reserved "rebuild" QoS tenant
	// (0 = unthrottled; rebuild still yields to the per-round budget).
	RebuildRate float64
	// Cache shapes the host cache; a zero-capacity cache disables both
	// read caching and write-back buffering.
	Cache CacheConfig
	// Tenants declares the QoS population (default: one unthrottled
	// tenant named "default"). The name "rebuild" is reserved when
	// redundancy is enabled.
	Tenants []TenantConfig
	// RoundOps bounds how many tenant ops one scheduling round admits
	// (default 8 per drive).
	RoundOps int
	// Family selects the drives' ECC codec family (zero = adaptive BCH).
	Family ecc.Family
	// Controller overrides the per-die controller config (nil = defaults).
	Controller *controller.Config
	// Trace, when non-nil, collects virtual-time spans from every layer:
	// the front end (rounds, QoS stalls, cache traffic, reconstructions,
	// rebuild progress) as trace process 0 and each drive's stack (dies,
	// bus, codec, FTL background work) as its own process. nil disables
	// tracing at zero per-op cost.
	Trace *obs.Tracer
}

// Op is one tenant operation against the volume address space.
type Op struct {
	Tenant string
	Write  bool
	Page   int // volume page address
	Data   []byte
	// Buf, for reads, is an optional caller-owned destination: the page
	// is decoded straight into it and Result.Data aliases it (no per-op
	// allocation). The caller must not touch Buf until the op's Result
	// has surfaced from Drain, and two in-flight reads must never share
	// one Buf: drive workers decode into their ops' buffers concurrently,
	// so a shared Buf is a data race, not just a stale result.
	Buf []byte
	// Tag is an opaque caller token echoed in the Result, mirroring
	// dispatch.Request.Tag one layer up.
	Tag uint64
}

// Result reports one completed Op in deterministic schedule order.
type Result struct {
	Tenant   string
	Write    bool
	Page     int
	Tag      uint64
	CacheHit bool
	Drive    int // serving slot; -1 for pure cache traffic
	Data     []byte
	Latency  time.Duration
	Err      error
}

// Array is the striped multi-drive front end. The scheduling front end
// (Submit, Drain, Flush, Report, Close) is confined to one caller
// goroutine; only the drive workers run concurrently, strictly between
// a phase's dispatch and its barrier.
type Array struct {
	cfg   Config
	lay   layout
	cache *hostCache
	sched *scheduler

	// slots are the logical array members; allDrives every physical
	// stack ever built (members + spares); sparePool the unattached
	// spares in attach order.
	slots      []*slot
	allDrives  []*drive
	sparePool  []*drive
	rebuildTen *tenant

	pageBytes    int
	perDriveLPAs int
	volumePages  int

	// written marks volume pages that have ever landed on a drive;
	// parityOK (parity mode) marks drive-local parity pages whose stored
	// parity matches the row's data.
	written  []bool
	parityOK []bool

	clock        time.Duration // fleet modelled clock
	rounds       int64
	stalls       int64
	parityStale  int64
	rebuiltPages int64
	pendingWB    []writeback // dirty evictions carried into the next round

	// trace is the host front end's span stream (nil when tracing is
	// off); every hook through it is front-end confined.
	trace *obs.Stream

	// Front-end-owned op-class histograms: degraded reads served by
	// reconstruction and rebuild page copies (neither belongs to any one
	// drive). retired accumulates the per-class histograms of stacks
	// that died mid-run, so fleet-level summaries never lose history.
	latDegraded obs.LatencyHist
	latRebuild  obs.LatencyHist
	retired     [4]obs.LatencyHist // clean, retried, soft, write

	// scr is the round's reusable staging (front-end confined). The
	// results handed back from round are copied by Drain, into drained,
	// before the next round recycles them.
	scr     roundScratch
	drained []Result
	// phaseWG is runPhase's reusable barrier: phases are strictly
	// sequential, so the group is always at zero between uses.
	phaseWG sync.WaitGroup

	rebuilds []*RebuildReport
	closed   bool
}

// New opens an array of cfg.Drives fresh drives plus cfg.Spares hot
// spares.
func New(cfg Config) (*Array, error) {
	if cfg.Drives < 1 {
		return nil, fmt.Errorf("array: need >= 1 drive, got %d", cfg.Drives)
	}
	if cfg.DiesPerDrive == 0 {
		cfg.DiesPerDrive = 2
	}
	if cfg.BlocksPerDie == 0 {
		cfg.BlocksPerDie = 64
	}
	if cfg.StripePages == 0 {
		cfg.StripePages = 1
	}
	if cfg.StripePages < 1 {
		return nil, fmt.Errorf("array: bad stripe unit %d", cfg.StripePages)
	}
	if cfg.RoundOps == 0 {
		cfg.RoundOps = 8 * cfg.Drives
	}
	lay, err := newLayout(cfg.Redundancy, cfg.Drives, cfg.StripePages)
	if err != nil {
		return nil, err
	}
	cfg.Redundancy = lay.name
	if cfg.Spares < 0 {
		return nil, fmt.Errorf("array: negative spare count %d", cfg.Spares)
	}
	if cfg.RebuildRate < 0 || math.IsNaN(cfg.RebuildRate) || math.IsInf(cfg.RebuildRate, 0) {
		return nil, fmt.Errorf("array: bad rebuild rate %v", cfg.RebuildRate)
	}
	if err := cfg.Faults.validate(cfg.Drives); err != nil {
		return nil, err
	}
	env := sim.DefaultEnv()
	ctrlCfg := controller.DefaultConfig()
	if cfg.Controller != nil {
		ctrlCfg = *cfg.Controller
	}
	cache, err := newHostCache(cfg.Cache)
	if err != nil {
		return nil, err
	}
	sched, err := newScheduler(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	a := &Array{cfg: cfg, lay: lay, cache: cache, sched: sched}
	if lay.redundant() {
		if _, dup := sched.byName[rebuildTenant]; dup {
			return nil, fmt.Errorf("array: tenant name %q is reserved when redundancy is enabled", rebuildTenant)
		}
		t, err := newTenant(TenantConfig{Name: rebuildTenant, Rate: cfg.RebuildRate})
		if err != nil {
			return nil, err
		}
		sched.tenants = append(sched.tenants, t)
		sched.byName[rebuildTenant] = t
		a.rebuildTen = t
	}
	if cfg.Trace != nil {
		host := cfg.Trace.Process(0, "host")
		host.Thread(hostTidSched, "scheduler")
		host.Thread(hostTidCache, "cache")
		host.Thread(hostTidRecov, "recovery")
		host.Thread(hostTidRebuild, "rebuild")
		for i, t := range sched.tenants {
			t.tid = hostTidTenant0 + int32(i)
			host.Thread(t.tid, "tenant "+t.cfg.Name)
		}
		a.trace = host.Stream()
	}
	faults := make(map[int]DriveFault, len(cfg.Faults.Drives))
	for _, df := range cfg.Faults.Drives {
		faults[df.Drive] = df
	}
	for i := 0; i < cfg.Drives+cfg.Spares; i++ {
		d, err := newDrive(i, cfg, env, ctrlCfg)
		if err != nil {
			a.Close()
			return nil, err
		}
		a.allDrives = append(a.allDrives, d)
	}
	for i := 0; i < cfg.Drives; i++ {
		s := &slot{id: i, d: a.allDrives[i]}
		if f, ok := faults[i]; ok {
			s.fault = f
			s.hasFault = true
			s.d.setFault(f, cfg.Faults.Seed)
		}
		a.slots = append(a.slots, s)
	}
	a.sparePool = append(a.sparePool, a.allDrives[cfg.Drives:]...)
	a.pageBytes = a.allDrives[0].f.Dispatcher().Geometry().PageDataBytes
	perDrive := a.allDrives[0].part.Capacity()
	stripes := perDrive / cfg.StripePages // stripe rows per drive
	if stripes == 0 {
		a.Close()
		return nil, fmt.Errorf("array: stripe unit %d exceeds drive capacity %d pages",
			cfg.StripePages, perDrive)
	}
	a.perDriveLPAs = stripes * cfg.StripePages
	a.volumePages = a.perDriveLPAs * lay.dataSlots()
	a.written = make([]bool, a.volumePages)
	if lay.parity {
		a.parityOK = make([]bool, a.perDriveLPAs)
	}
	a.scr.batches = make([][]driveOp, cfg.Drives)
	a.scr.rs.idx = make([]int32, cfg.Drives*a.perDriveLPAs)
	a.scr.fwd = make([]int32, a.volumePages)
	a.scr.rowIdx = make([]int32, a.perDriveLPAs)
	return a, nil
}

// VolumePages is the volume's capacity in pages (net of redundancy).
func (a *Array) VolumePages() int { return a.volumePages }

// PageBytes is the volume's page payload size.
func (a *Array) PageBytes() int { return a.pageBytes }

// Clock returns the fleet's modelled clock: the accumulated per-round
// critical path (slowest drive per phase) plus host-side service and
// QoS stall time.
func (a *Array) Clock() time.Duration { return a.clock }

// Submit queues one op on its tenant. Ops admit in QoS order, not
// submission order: one tenant's queue is FIFO, but the fair scheduler
// interleaves tenants, so an op that depends on another tenant's
// earlier op needs a Drain barrier between them. Results surface from
// Drain.
func (a *Array) Submit(op Op) error {
	if a.closed {
		return ErrClosed
	}
	if op.Page < 0 || op.Page >= a.volumePages {
		return fmt.Errorf("array: page %d outside volume [0,%d)", op.Page, a.volumePages)
	}
	if op.Write {
		if len(op.Data) != a.pageBytes {
			return fmt.Errorf("array: write needs %d bytes, got %d", a.pageBytes, len(op.Data))
		}
		// Copy: the caller may reuse its buffer; the op may sit queued
		// and then cached for many rounds. The store comes off the cache's
		// spare list, and the cache takes it over when the op is picked.
		op.Data = append(a.cache.take(), op.Data...)
	} else if op.Data != nil {
		return fmt.Errorf("array: read carries data")
	} else if op.Buf != nil && len(op.Buf) < a.pageBytes {
		return fmt.Errorf("array: read buffer needs %d bytes, got %d", a.pageBytes, len(op.Buf))
	}
	return a.sched.enqueue(op)
}

// Drain runs scheduling rounds until every tenant queue is empty and
// any active rebuild converged, returning completions in deterministic
// schedule order. A rebuild whose sources stay down (a second fault
// inside the repair window) is abandoned with its losses on record
// rather than spinning forever.
//
// The returned slice is owned by the array and valid until the next
// Drain, Flush or Close; callers that keep results longer copy them.
// (Result.Data is the caller's Op.Buf, or a page the result owns —
// never a cache entry or a recycled write store.)
func (a *Array) Drain() ([]Result, error) {
	if a.closed {
		return nil, ErrClosed
	}
	out := a.drained[:0]
	idle, idleLimit := 0, 4*a.perDriveLPAs+1024
	for a.sched.pending() > 0 || a.rebuildActive() {
		progress := a.rebuiltPages
		res, err := a.round()
		out = append(out, res...)
		if err != nil {
			a.drained = out
			return out, err
		}
		if a.sched.pending() == 0 && a.rebuildActive() {
			if a.rebuiltPages == progress {
				idle++
				if idle > idleLimit {
					a.abandonRebuild()
				}
			} else {
				idle = 0
			}
		}
	}
	// Dirty evictions raised by the last round's cache fills would
	// otherwise sit staged forever (they are already counted as
	// writebacks): land them before handing control back.
	a.writeBackPending()
	a.drained = out
	return out, nil
}

// writeBackPending executes the staged write-backs as one extra round
// of their own (no host result slot: they are the cache's own traffic).
func (a *Array) writeBackPending() {
	if len(a.pendingWB) == 0 {
		return
	}
	a.scr.acts = appendWriteBacks(a.scr.acts[:0], a.pendingWB)
	a.pendingWB = a.pendingWB[:0]
	a.advance(a.execRound(a.scr.acts, false))
	a.recycleWrites(a.scr.acts)
}

// recycleWrites hands the page stores of an executed round's writes back
// to the cache's spare list: nothing reads them once the round is over.
func (a *Array) recycleWrites(acts []action) {
	for i := range acts {
		if acts[i].write {
			a.cache.recycle(acts[i].data)
		}
	}
}

// appendWriteBacks converts staged write-backs into round actions.
func appendWriteBacks(acts []action, wbs []writeback) []action {
	for _, wb := range wbs {
		acts = append(acts, action{write: true, page: wb.page, data: wb.data})
	}
	return acts
}

// round runs one scheduling round: fire scheduled faults, refill
// buckets, pick fairly, serve from cache, then hand the drive-bound
// actions (plus any rebuild traffic) to the round pipeline and judge
// each faulted drive's UBER climate at the barrier.
func (a *Array) round() ([]Result, error) {
	a.rounds++
	roundStart := a.clock
	a.applyScheduledFaults()
	picked := a.sched.pick(a.cfg.RoundOps)
	if len(picked) == 0 && !a.rebuildActive() {
		// Every queued tenant is out of tokens: jump the fleet clock to
		// the earliest refill instead of spinning.
		wait := a.sched.stallWait()
		if wait <= 0 {
			return nil, fmt.Errorf("array: scheduler stalled with %d ops pending", a.sched.pending())
		}
		a.stall(wait)
		return nil, nil
	}

	results := slices.Grow(a.scr.results[:0], len(picked))[:len(picked)]
	clear(results)
	a.scr.results = results
	acts := a.scr.acts[:0]

	// Dirty evictions from the previous round's cache fills flush
	// first, preserving first-dirtied order ahead of new traffic.
	acts = appendWriteBacks(acts, a.pendingWB)
	a.pendingWB = a.pendingWB[:0]

	fills := a.scr.fills[:0]
	var hostTime time.Duration

	for i, op := range picked {
		r := &results[i]
		r.Tenant, r.Write, r.Page, r.Tag = op.Tenant, op.Write, op.Page, op.Tag
		r.Drive = -1
		t := a.sched.byName[op.Tenant]
		if op.Write {
			t.stats.Writes++
			t.stats.BytesWrite += int64(len(op.Data))
			if a.cache.enabled() {
				// Write-back: ack into the buffer; the drive write
				// happens on eviction or flush.
				r.CacheHit = true
				r.Latency = hitLatency
				hostTime += hitLatency
				if wb, ok := a.cache.put(op.Page, op.Data, true); ok {
					acts = append(acts, action{write: true, page: wb.page, data: wb.data})
				}
				continue
			}
			acts = append(acts, action{write: true, page: op.Page, data: op.Data, res: r})
			continue
		}
		t.stats.Reads++
		if data, ok := a.cache.lookup(op.Page); ok {
			t.stats.CacheHits++
			t.stats.BytesRead += int64(len(data))
			a.trace.Instant1(hostTidCache, "cache_hit", a.clock, "page", int64(op.Page))
			r.CacheHit = true
			r.Data = copyInto(op.Buf, data)
			r.Latency = hitLatency
			hostTime += hitLatency
			continue
		}
		acts = append(acts, action{page: op.Page, res: r, buf: op.Buf})
		if a.cache.enabled() {
			a.trace.Instant1(hostTidCache, "cache_miss", a.clock, "page", int64(op.Page))
			fills = append(fills, fill{slot: i, page: op.Page})
		}
	}

	// Watermark flush: once the write-back buffer reaches its high
	// water, write all of it back, in first-dirtied order.
	if a.cache.dirty.Len() >= a.cache.highWater() {
		a.scr.flushed = a.cache.flush(a.scr.flushed[:0])
		acts = appendWriteBacks(acts, a.scr.flushed)
	}
	a.scr.acts, a.scr.fills = acts, fills

	progress := a.rebuiltPages
	crit := a.execRound(acts, true)
	a.recycleWrites(acts)
	a.judgeClimate()

	// Post-barrier, deterministic order: account read bytes, record
	// per-tenant latencies against any SLO, fill the cache with miss
	// data (evictions carry to the next round), and advance the fleet
	// clock by the round's critical path.
	for i := range results {
		r := &results[i]
		t := a.sched.byName[r.Tenant]
		if !r.Write && !r.CacheHit && r.Err == nil {
			t.stats.BytesRead += int64(len(r.Data))
		}
		if r.Err == nil {
			t.observe(r.Latency, a.rounds)
			if a.trace != nil {
				name := "read"
				if r.Write {
					name = "write"
				}
				a.trace.Span2(t.tid, name, roundStart, r.Latency,
					"page", int64(r.Page), "drive", int64(r.Drive))
			}
		}
	}
	for _, fl := range fills {
		r := &results[fl.slot]
		if r.Err != nil {
			continue
		}
		if wb, ok := a.cache.fill(fl.page, r.Data); ok {
			a.pendingWB = append(a.pendingWB, wb)
		}
	}
	if len(picked) == 0 && crit == 0 && hostTime == 0 && a.rebuiltPages == progress && a.rebuildActive() {
		// Rebuild-only round that made no progress (token-starved or
		// sources deferred): jump the clock to the next rebuild token.
		wait := a.rebuildTen.tokenWait()
		if wait <= 0 {
			wait = time.Microsecond
		}
		a.stall(wait)
		return nil, nil
	}
	a.advance(crit + hostTime)
	if a.trace != nil && a.clock > roundStart {
		a.trace.Span2(hostTidSched, "round", roundStart, a.clock-roundStart,
			"round", a.rounds, "ops", int64(len(picked)))
	}
	return results, nil
}

// copyInto serves a host read from host memory (a cache hit, a write
// forwarded inside its round): into the caller's Op.Buf when there is
// one, which the result then aliases, else into a page of its own.
func copyInto(buf, data []byte) []byte { return append(buf[:0:len(buf)], data...) }

// stall jumps the fleet clock over a wait no op can shorten.
func (a *Array) stall(wait time.Duration) {
	a.stalls++
	a.trace.Span1(hostTidSched, "qos_stall", a.clock, wait, "round", a.rounds)
	a.advance(wait)
}

// advance moves the fleet clock and refills every token bucket.
func (a *Array) advance(dt time.Duration) {
	if dt <= 0 {
		return
	}
	a.clock += dt
	a.sched.refill(dt)
}

// Flush writes back every dirty page, in first-dirtied order, through
// the drives. The write-back buffer is empty afterwards.
func (a *Array) Flush() error {
	if a.closed {
		return ErrClosed
	}
	a.pendingWB = a.cache.flush(a.pendingWB)
	a.writeBackPending()
	return nil
}

// Close stops the drive workers and releases every drive (members,
// spares, and stacks already killed by faults). Dirty cache pages are
// NOT flushed — call Flush first if they matter. Idempotent; calls
// into the array after Close return ErrClosed.
func (a *Array) Close() {
	if a.closed {
		return
	}
	a.closed = true
	for _, d := range a.allDrives {
		if d != nil {
			d.close()
		}
	}
}
