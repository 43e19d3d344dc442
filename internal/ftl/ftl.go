// Package ftl implements a flash translation layer over the cross-layer
// memory sub-system — the paper's §7 future work ("expose differentiated
// storage services to applications") made concrete. The physical block
// space, striped across every die behind the dispatcher, is split into
// named partitions, each bound to one of the paper's service levels
// (nominal / min-UBER / max-read); the FTL gives every partition a
// logical-page address space with out-of-place writes, garbage
// collection and wear-aware victim selection. Each operation is
// submitted through the dispatcher with the owning partition's mode as a
// per-request override, so heterogeneous partitions never fight over
// global controller state.
//
// A drive is the pair Open returns: a multi-die dispatcher and the FTL
// over it, reached again through FTL.Dispatcher. The drive's stress API
// lives here too: Age fast-forwards wear in refresh-paced steps and
// Disturb applies raw read-disturb aggression; a bake is the
// dispatcher's own AdvanceTime.
package ftl

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"xlnand/internal/controller"
	"xlnand/internal/dispatch"
	"xlnand/internal/obs"
	"xlnand/internal/sim"
)

// PartitionSpec declares one storage service at construction time.
type PartitionSpec struct {
	Name string
	// Blocks is the number of physical flash blocks owned by the
	// partition (including over-provisioning; at least 2).
	Blocks int
	// Mode is the cross-layer service level for all data in the
	// partition.
	Mode sim.Mode
}

const (
	invalidPPA = -1
	// lostPPA marks a logical page whose only physical copy failed an
	// ECC decode during garbage collection: the FTL had to erase the
	// block, so the page is a tracked media error — reads fail with
	// ErrUncorrectable until the host rewrites it.
	lostPPA = -2
)

// blockState tracks one physical block inside a partition.
type blockState struct {
	id        int // global block index (striped across dies)
	writePtr  int // next free page (pages are programmed in order)
	livePages int
	// lbaOf maps page index -> logical page (or -1), for GC relocation.
	lbaOf []int
	// retired blocks are out of rotation permanently: never a frontier,
	// never a GC destination or victim, never erased again. Any stale
	// live mappings left behind by an uncorrectable relocation read keep
	// serving reads from the retired block.
	retired bool
	// lastReads caches the block's reads-since-erase counter as last
	// reported by a read result (ReadResult.BlockReads): the
	// disturb-aware retry guard budgets against it without paying a
	// control-plane round trip per host read. At most one read stale,
	// which a threshold guard tolerates by construction.
	lastReads float64
}

// Partition is one differentiated storage service.
//
// Every public FTL operation serialises on the partition it targets, so
// host traffic, the background scrubber and mode retuning may run
// concurrently from different goroutines. The exported statistics fields
// are snapshots: read them through the partition's methods, or only after
// concurrent traffic has quiesced.
type Partition struct {
	Name string
	Mode sim.Mode

	// mu guards all mutable partition state (blocks, mapping, pools,
	// statistics, scrub marks, Mode).
	mu sync.Mutex

	blocks    []*blockState
	active    int   // index into blocks: current write frontier
	freePool  []int // indices of erased blocks
	mapping   []int // logical page -> encoded PPA (block*pages + page), -1 if unwritten
	pages     int   // pages per block
	userPages int   // exported capacity in pages

	// statistics
	HostWrites    int
	HostReads     int
	GCMoves       int
	Erases        int
	Trims         int
	RetiredBlocks int
	// LostPages counts logical pages whose only copy failed decode
	// during a GC relocation (tracked media errors).
	LostPages int
	// DisturbCapped counts host reads whose recovery budget was capped
	// by the disturb-aware retry guard (the block was near its
	// read-disturb budget and got marked for relocation instead).
	DisturbCapped int
	// DeepRecovered counts pages that failed the normal read during a
	// relocation (GC, scrub, retirement) but were saved by the one
	// deep-retry attempt at the device's full recovery ladder.
	DeepRecovered int
	// RelocRetries counts recovery-ladder re-senses paid by relocation
	// reads (GC, scrub, retirement — deep-retry walks included). These
	// occupy the dispatcher's timeline like any host read's retries but
	// never pass through the host read path, so they are tracked here.
	RelocRetries int
	ServiceTime  time.Duration

	// scrubMarks holds partition-local block indices awaiting refresh
	// (see scrub.go).
	scrubMarks map[int]bool

	// Host-read scratch (guarded by mu like everything else): ReadInto
	// stores its result here and passes capRetries by address, so a
	// steady-state host read into a caller buffer allocates nothing.
	readRes    controller.ReadResult
	capRetries int

	// Relocation read pages (guarded by mu, made on first use): GC and
	// scrub/retirement decode a live page into one and program it at
	// once. They are two because a relocation's rewrite can run a GC
	// round before its own program.
	gcPage, movePage []byte
}

// FTL is the translation layer over one multi-die dispatcher.
type FTL struct {
	q     *dispatch.Queue
	geo   dispatch.Geometry
	parts []*Partition

	// noDeepRetry disables the last-chance full-ladder relocation read
	// (SetDeepRetry): recovery ablations need relocation losses to be
	// as honest as host-read losses.
	noDeepRetry bool

	// retryGuard holds the disturb-aware retry policy (SetRetryGuard):
	// host reads of blocks past ScrubPolicy.DisturbRetryBudget reads
	// since erase are capped at DisturbRetryCap hard retries — skipping
	// soft multi-sense walks entirely — and their block is marked for
	// early scrub relocation instead of deeper recovery.
	retryGuard ScrubPolicy

	// trace, when non-nil, records scrub passes, GC rounds and
	// deep-retry rescues as spans on the owning drive's virtual
	// timeline (Open attaches it). The stream follows the same
	// single-writer rule as the rest of the tracer: callers that scrub
	// concurrently with host traffic must leave tracing off or
	// serialise externally.
	trace *obs.Stream
}

// traceTid is the FTL's maintenance thread within a drive's trace
// process; the dispatcher owns tids 1 (bus), 2 (codec) and 10+ (dies).
const traceTid = 3

// driveSeedStride decorrelates per-drive RNG streams the way dispatch's
// dieSeedStride decorrelates dies: a distinct odd constant (splitmix64's
// second-round multiplier), so drive and die streams never alias.
const driveSeedStride = 0xbf58476d1ce4e5b9

// DriveSeed derives drive i's seed from a fleet or array master seed.
func DriveSeed(master uint64, i int) uint64 { return master + uint64(i)*driveSeedStride }

// Open builds a drive: a dispatcher over cfg and an FTL carving its
// blocks into specs (see New). The dispatcher is closed again on any
// error. With cfg.Trace set, the FTL's maintenance spans (GC, scrub,
// deep retry) land on an "ftl" thread of that trace process.
func Open(cfg dispatch.Config, specs []PartitionSpec) (*FTL, error) {
	d, err := dispatch.New(cfg)
	if err != nil {
		return nil, err
	}
	f, err := New(d, cfg.Env, specs)
	if err != nil {
		d.Close()
		return nil, err
	}
	cfg.Trace.Thread(traceTid, "ftl") // nil-safe, like Stream
	f.trace = cfg.Trace.Stream()
	return f, nil
}

// Dispatcher returns the dispatcher the FTL submits through.
func (f *FTL) Dispatcher() *dispatch.Dispatcher { return f.q.Dispatcher() }

// vnow reads the dispatcher's virtual high-water mark (trace stamps).
func (f *FTL) vnow() time.Duration { return f.Dispatcher().Now() }

// New builds an FTL over the dispatcher, carving the device's blocks
// (striped across dies) into the declared partitions. Every partition
// needs at least two blocks (one of them stays free for garbage
// collection) and the total must fit the device. The environment
// argument is unused.
func New(d *dispatch.Dispatcher, _ sim.Env, specs []PartitionSpec) (*FTL, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("ftl: no partitions declared")
	}
	total := 0
	for _, s := range specs {
		if s.Blocks < 2 {
			return nil, fmt.Errorf("ftl: partition %q needs >= 2 blocks", s.Name)
		}
		total += s.Blocks
	}
	geo := d.Geometry()
	if total > geo.Dies*geo.BlocksPerDie {
		return nil, fmt.Errorf("ftl: partitions need %d blocks, device has %d",
			total, geo.Dies*geo.BlocksPerDie)
	}
	f := &FTL{q: d.NewQueue(), geo: geo}
	next := 0
	pages := geo.PagesPerBlock
	for _, s := range specs {
		p := &Partition{
			Name:      s.Name,
			Mode:      s.Mode,
			pages:     pages,
			userPages: (s.Blocks - 1) * pages, // one block of over-provisioning
		}
		for b := 0; b < s.Blocks; b++ {
			bs := &blockState{id: next, lbaOf: make([]int, pages)}
			for i := range bs.lbaOf {
				bs.lbaOf[i] = invalidPPA
			}
			p.blocks = append(p.blocks, bs)
			next++
		}
		p.mapping = make([]int, p.userPages)
		for i := range p.mapping {
			p.mapping[i] = invalidPPA
		}
		// Block 0 is the first frontier; the rest start in the free pool.
		p.active = 0
		for b := 1; b < len(p.blocks); b++ {
			p.freePool = append(p.freePool, b)
		}
		f.parts = append(f.parts, p)
	}
	return f, nil
}

// addr maps a global block id onto its (die, block) pair. Consecutive
// ids stripe round-robin across dies so every partition's blocks spread
// over the array and its traffic interleaves.
func (f *FTL) addr(global int) (die, block int) {
	return global % f.geo.Dies, global / f.geo.Dies
}

// writePhys programs one physical page under the partition's service
// level (the dispatcher resolves algorithm and capability per request).
// Called with the partition lock held.
func (f *FTL) writePhys(p *Partition, global, page int, data []byte) (*controller.WriteResult, error) {
	die, block := f.addr(global)
	// p.Mode is stable for the duration of the call (mu held, and the
	// dispatcher reads it before DoWrite returns), so its address goes
	// straight in — no per-write boxing.
	comp, err := f.q.DoWrite(context.Background(), dispatch.Request{
		Op: dispatch.OpWrite, Die: die, Block: block, Page: page,
		Data: data, Mode: &p.Mode,
	}, nil)
	if err != nil {
		return comp.Write, err
	}
	return comp.Write, nil
}

// readPhys reads one physical page through the ECC path. A non-nil
// retries overrides the controller's recovery budget for this read. The
// result lands in out (data in dst when it is page-sized) with no
// allocation; a nil out gets a freshly allocated result.
func (f *FTL) readPhys(global, page int, retries *int, dst []byte, out *controller.ReadResult) (*controller.ReadResult, error) {
	die, block := f.addr(global)
	comp, err := f.q.DoRead(context.Background(), dispatch.Request{
		Op: dispatch.OpRead, Die: die, Block: block, Page: page,
		Retries: retries,
	}, dst, out)
	return comp.Read, err
}

// SetRetryGuard installs the disturb-aware retry policy (the
// DisturbRetryBudget/DisturbRetryCap knobs of a ScrubPolicy; a zero
// budget disables the guard).
func (f *FTL) SetRetryGuard(pol ScrubPolicy) { f.retryGuard = pol }

// disturbGuarded reports whether a host read of the block must run with
// the capped recovery budget: the block's last-observed reads-since-
// erase counter has reached the configured disturb budget.
func (f *FTL) disturbGuarded(bs *blockState) bool {
	return f.retryGuard.DisturbRetryBudget > 0 &&
		bs.lastReads >= f.retryGuard.DisturbRetryBudget
}

// deepRetryBudget is the per-request retry override of a last-chance
// relocation read: effectively unbounded, so the controller walks the
// device's entire calibrated ladder (it clamps to the ladder depth).
var deepRetryBudget = 1 << 20

// SetDeepRetry enables or disables the last-chance deep-retry
// relocation read (enabled by default). Recovery-ablation runs disable
// it so a "single-shot" pipeline loses relocated pages exactly as the
// pre-recovery code did.
func (f *FTL) SetDeepRetry(on bool) { f.noDeepRetry = !on }

// readPhysDeep is the last-chance read before a page is declared lost:
// one attempt with the recovery ladder opened to the device's full
// calibrated depth, regardless of the configured per-read budget. With
// deep retry disabled it reports the page uncorrectable immediately.
func (f *FTL) readPhysDeep(global, page int, dst []byte) (*controller.ReadResult, error) {
	if f.noDeepRetry {
		return nil, fmt.Errorf("ftl: deep retry disabled: %w", controller.ErrUncorrectable)
	}
	start := time.Duration(0)
	if f.trace != nil {
		start = f.vnow()
	}
	res, err := f.readPhys(global, page, &deepRetryBudget, dst, nil)
	if f.trace != nil {
		rescued := int64(0)
		if err == nil {
			rescued = 1
		}
		_, block := f.addr(global)
		f.trace.Span2(traceTid, "deep_retry", start, f.vnow()-start,
			"block", int64(block), "rescued", rescued)
	}
	return res, err
}

// relocPage returns the relocation read page *pg, making it on first use.
func (f *FTL) relocPage(pg *[]byte) []byte {
	if *pg == nil {
		*pg = make([]byte, f.geo.PageDataBytes)
	}
	return *pg
}

// erasePhys erases one physical block.
func (f *FTL) erasePhys(global int) error {
	die, block := f.addr(global)
	_, err := f.q.Do(context.Background(), dispatch.Request{
		Op: dispatch.OpErase, Die: die, Block: block,
	})
	return err
}

// cyclesOf returns a global block's program/erase wear.
func (f *FTL) cyclesOf(global int) (float64, error) {
	die, block := f.addr(global)
	return f.Dispatcher().Cycles(die, block)
}

// Partitions returns the declared services.
func (f *FTL) Partitions() []*Partition { return f.parts }

// PublishMetrics dumps per-partition FTL counters into the registry.
// labels is the pre-rendered label block scoping this FTL's series
// (e.g. `drive="3"`, or "" for a single-subsystem export); every
// series additionally carries the partition name.
func (f *FTL) PublishMetrics(reg *obs.Registry, labels string) {
	if reg == nil {
		return
	}
	for _, p := range f.parts {
		p.mu.Lock()
		series := func(name string) string {
			if labels == "" {
				return obs.Label(name, "part", p.Name)
			}
			return name + "{" + labels + `,part="` + p.Name + `"}`
		}
		reg.AddCounter(series("ftl_host_reads_total"), float64(p.HostReads))
		reg.AddCounter(series("ftl_host_writes_total"), float64(p.HostWrites))
		reg.AddCounter(series("ftl_gc_moves_total"), float64(p.GCMoves))
		reg.AddCounter(series("ftl_erases_total"), float64(p.Erases))
		reg.AddCounter(series("ftl_lost_pages_total"), float64(p.LostPages))
		reg.AddCounter(series("ftl_deep_recovered_total"), float64(p.DeepRecovered))
		reg.AddCounter(series("ftl_disturb_capped_total"), float64(p.DisturbCapped))
		reg.AddCounter(series("ftl_reloc_retries_total"), float64(p.RelocRetries))
		p.mu.Unlock()
	}
}

// Partition returns a partition by name.
func (f *FTL) Partition(name string) (*Partition, error) {
	for _, p := range f.parts {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("ftl: unknown partition %q", name)
}

// Capacity returns the exported size of a partition in logical pages.
func (p *Partition) Capacity() int { return p.userPages }

// SetMode retunes the partition's service level: subsequent writes
// (host, GC relocation and scrub refresh alike) are programmed under the
// new mode, while already-programmed pages keep the algorithm and
// capability they were written with — the reads recover both from the
// stored geometry. This is the cross-layer policy hook lifetime
// management loops use to walk a partition down the paper's trade-off
// (Nominal -> MinUBER -> MaxRead) as measured RBER climbs.
func (f *FTL) SetMode(part string, m sim.Mode) error {
	p, err := f.Partition(part)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.Mode = m
	p.mu.Unlock()
	return nil
}

// ModeOf returns the partition's current service level.
func (f *FTL) ModeOf(part string) (sim.Mode, error) {
	p, err := f.Partition(part)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Mode, nil
}

// Write stores one logical page into the partition, superseding any
// previous version (out-of-place update), and reports the physical write
// (capability, algorithm, latency breakdown). The old copy is
// invalidated before space allocation so that an overwrite at 100%
// logical utilisation can still reclaim space — a simulator
// simplification that trades power-fail atomicity (which this model does
// not exercise) for the textbook GC invariant.
func (f *FTL) Write(part string, lpa int, data []byte) (*controller.WriteResult, error) {
	p, err := f.Partition(part)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return f.write(p, lpa, data)
}

// write is Write with the partition lock held (scrub and retirement
// relocate live data through the same path).
func (f *FTL) write(p *Partition, lpa int, data []byte) (*controller.WriteResult, error) {
	if lpa < 0 || lpa >= p.userPages {
		return nil, fmt.Errorf("ftl: lpa %d outside partition %q capacity %d", lpa, p.Name, p.userPages)
	}
	if old := p.mapping[lpa]; old >= 0 {
		ob, op := old/p.pages, old%p.pages
		p.blocks[ob].livePages--
		p.blocks[ob].lbaOf[op] = invalidPPA
	}
	p.mapping[lpa] = invalidPPA // a rewrite also clears a lost-page mark
	bs, page, err := f.allocate(p)
	if err != nil {
		return nil, err
	}
	wr, err := f.writePhys(p, bs.id, page, data)
	if err != nil {
		return nil, fmt.Errorf("ftl: program %d.%d: %w", bs.id, page, err)
	}
	p.ServiceTime += wr.Latency.Program
	p.mapping[lpa] = localPPA(p, bs) + page
	bs.lbaOf[page] = lpa
	bs.livePages++
	p.HostWrites++
	return wr, nil
}

// localPPA encodes the partition-local block index of bs.
func localPPA(p *Partition, bs *blockState) int {
	for i, b := range p.blocks {
		if b == bs {
			return i * p.pages
		}
	}
	panic("ftl: block not in partition")
}

// ReadInto fetches one logical page through the ECC path. With a
// non-nil dst the page lands in dst (a short dst gets a freshly
// allocated page) and the result points at partition-owned scratch,
// valid only until the partition's next read: the steady-state read
// allocates nothing, and callers that keep the result must copy it. A
// nil dst gives the caller both a fresh page and a result of its own,
// which later reads from any goroutine never touch.
func (f *FTL) ReadInto(part string, lpa int, dst []byte) ([]byte, *controller.ReadResult, error) {
	p, err := f.Partition(part)
	if err != nil {
		return nil, nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if lpa < 0 || lpa >= p.userPages {
		return nil, nil, fmt.Errorf("ftl: lpa %d outside partition %q", lpa, part)
	}
	enc := p.mapping[lpa]
	if enc == invalidPPA {
		return nil, nil, fmt.Errorf("ftl: lpa %d of %q never written", lpa, part)
	}
	if enc == lostPPA {
		return nil, nil, fmt.Errorf("ftl: lpa %d of %q lost to an unrecoverable relocation read: %w",
			lpa, part, controller.ErrUncorrectable)
	}
	blk := enc / p.pages
	bs := p.blocks[blk]
	var res *controller.ReadResult
	if f.disturbGuarded(bs) {
		// Near the disturb budget: cap the ladder (no soft multi-sense —
		// it only unlocks past the full hard walk) and queue the block
		// for relocation, which heals the disturb count outright.
		p.capRetries = f.retryGuard.DisturbRetryCap
		res, err = f.readPhys(bs.id, enc%p.pages, &p.capRetries, dst, &p.readRes)
		p.DisturbCapped++
		if p.scrubMarks == nil {
			p.scrubMarks = make(map[int]bool)
		}
		p.scrubMarks[blk] = true
	} else {
		res, err = f.readPhys(bs.id, enc%p.pages, nil, dst, &p.readRes)
	}
	if res != nil {
		bs.lastReads = res.BlockReads
		if dst == nil {
			// Copy while mu still guards the scratch: a concurrent read of
			// this partition rewrites it as soon as the lock drops.
			own := *res
			res = &own
		}
	}
	if err != nil {
		return nil, res, err
	}
	p.HostReads++
	p.ServiceTime += res.Latency.Total()
	return res.Data, res, nil
}

// BlockOf returns the partition-local index of the physical block
// currently holding a live logical page (lifetime harnesses use it to
// check that scrub moved what it claimed to move).
func (f *FTL) BlockOf(part string, lpa int) (int, error) {
	p, err := f.Partition(part)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if lpa < 0 || lpa >= p.userPages || p.mapping[lpa] < 0 {
		return 0, fmt.Errorf("ftl: lpa %d not live in %q", lpa, part)
	}
	return p.mapping[lpa] / p.pages, nil
}

// Trim drops a logical page's mapping, freeing its physical copy for GC.
func (f *FTL) Trim(part string, lpa int) error {
	p, err := f.Partition(part)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if lpa < 0 || lpa >= p.userPages {
		return fmt.Errorf("ftl: lpa %d outside partition %q", lpa, part)
	}
	if enc := p.mapping[lpa]; enc >= 0 {
		bs := p.blocks[enc/p.pages]
		bs.livePages--
		bs.lbaOf[enc%p.pages] = invalidPPA
		p.mapping[lpa] = invalidPPA
		p.Trims++
	} else if enc == lostPPA {
		p.mapping[lpa] = invalidPPA
		p.Trims++
	}
	return nil
}

// allocate returns the next free physical page of the partition's write
// frontier. One erased block is always held in reserve as the garbage
// collector's relocation destination (invariant: the free pool never
// empties outside collect); host writes may consume pool blocks only
// down to that reserve.
func (f *FTL) allocate(p *Partition) (*blockState, int, error) {
	bs := p.blocks[p.active]
	if bs.writePtr < p.pages {
		page := bs.writePtr
		bs.writePtr++
		return bs, page, nil
	}
	// Frontier sealed. Take a pool block if the reserve stays intact.
	if len(p.freePool) >= 2 {
		p.active = p.freePool[0]
		p.freePool = p.freePool[1:]
		nb := p.blocks[p.active]
		if nb.writePtr != 0 {
			return nil, 0, fmt.Errorf("ftl: fresh frontier block %d not empty", nb.id)
		}
		nb.writePtr = 1
		return nb, 0, nil
	}
	// Otherwise reclaim: collect moves the victim's live pages into the
	// reserved block, which becomes the new (partially filled) frontier.
	if err := f.collect(p); err != nil {
		return nil, 0, err
	}
	nb := p.blocks[p.active]
	if nb.writePtr >= p.pages {
		return nil, 0, fmt.Errorf("ftl: partition %q out of space (capacity %d pages)", p.Name, p.userPages)
	}
	page := nb.writePtr
	nb.writePtr++
	return nb, page, nil
}

// collect performs one garbage-collection round: the sealed block with
// the fewest live pages (lowest wear as tie-break, levelling block usage)
// is relocated into the reserved free block, which becomes the new write
// frontier; the victim is erased and joins the pool.
func (f *FTL) collect(p *Partition) error {
	if len(p.freePool) == 0 {
		return fmt.Errorf("ftl: partition %q lost its GC reserve (internal invariant)", p.Name)
	}
	victim := -1
	for i, bs := range p.blocks {
		if bs.writePtr < p.pages || bs.retired {
			continue // only sealed (fully written), in-rotation blocks
		}
		if victim == -1 || f.betterVictim(p, i, victim) {
			victim = i
		}
	}
	if victim == -1 {
		return fmt.Errorf("ftl: partition %q has no sealed block to collect", p.Name)
	}
	if f.trace != nil {
		gcStart := f.vnow()
		movedBefore := p.GCMoves
		defer func() {
			f.trace.Span2(traceTid, "gc", gcStart, f.vnow()-gcStart,
				"victim", int64(p.blocks[victim].id), "moved", int64(p.GCMoves-movedBefore))
		}()
	}
	vb := p.blocks[victim]
	if vb.livePages == p.pages {
		return fmt.Errorf("ftl: partition %q full of live data; over-provisioning exhausted", p.Name)
	}
	destIdx := p.freePool[0]
	p.freePool = p.freePool[1:]
	dest := p.blocks[destIdx]
	if dest.writePtr != 0 {
		return fmt.Errorf("ftl: GC destination block %d not erased", dest.id)
	}
	for page, lpa := range vb.lbaOf {
		if lpa == invalidPPA {
			continue
		}
		dst := f.relocPage(&p.gcPage)
		res, err := f.readPhys(vb.id, page, nil, dst, nil)
		if res != nil {
			p.RelocRetries += res.Retries
			vb.lastReads = res.BlockReads
		}
		if err != nil {
			if !errors.Is(err, controller.ErrUncorrectable) {
				return fmt.Errorf("ftl: GC read %d.%d: %w", vb.id, page, err)
			}
			// Last chance before the victim is erased: one deep-retry
			// read at the device's full recovery ladder.
			deep, derr := f.readPhysDeep(vb.id, page, dst)
			if deep != nil {
				p.RelocRetries += deep.Retries
			}
			switch {
			case derr == nil:
				p.DeepRecovered++
				res = deep
			case errors.Is(derr, controller.ErrUncorrectable):
				// The only copy really is unreadable: track the logical
				// page as a media error so reads fail honestly until the
				// host rewrites it.
				vb.livePages--
				vb.lbaOf[page] = invalidPPA
				p.mapping[lpa] = lostPPA
				p.LostPages++
				continue
			default:
				// Infrastructure failure (closed queue, bad address):
				// not media loss — propagate, never mark the page lost.
				return fmt.Errorf("ftl: GC deep-retry read %d.%d: %w", vb.id, page, derr)
			}
		}
		if _, err := f.writePhys(p, dest.id, dest.writePtr, res.Data); err != nil {
			return fmt.Errorf("ftl: GC program: %w", err)
		}
		vb.livePages--
		vb.lbaOf[page] = invalidPPA
		p.mapping[lpa] = destIdx*p.pages + dest.writePtr
		dest.lbaOf[dest.writePtr] = lpa
		dest.livePages++
		dest.writePtr++
		p.GCMoves++
	}
	if err := f.erasePhys(vb.id); err != nil {
		return err
	}
	vb.writePtr = 0
	vb.livePages = 0
	vb.lastReads = 0 // erase heals the disturb counter
	for i := range vb.lbaOf {
		vb.lbaOf[i] = invalidPPA
	}
	p.Erases++
	p.freePool = append(p.freePool, victim)
	p.active = destIdx
	return nil
}

// betterVictim ranks GC candidates: fewer live pages first, then lower
// wear (erase count) to level block usage.
func (f *FTL) betterVictim(p *Partition, a, b int) bool {
	ba, bb := p.blocks[a], p.blocks[b]
	if ba.livePages != bb.livePages {
		return ba.livePages < bb.livePages
	}
	ca, _ := f.cyclesOf(ba.id)
	cb, _ := f.cyclesOf(bb.id)
	return ca < cb
}

// WriteAmplification returns total device writes / host writes for the
// partition (1.0 when GC never ran).
func (p *Partition) WriteAmplification() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.HostWrites == 0 {
		return 0
	}
	return float64(p.HostWrites+p.GCMoves) / float64(p.HostWrites)
}

// WearSpread returns the min and max erase counts across the partition's
// blocks — the wear-leveling quality metric.
func (f *FTL) WearSpread(part string) (min, max float64, err error) {
	p, err := f.Partition(part)
	if err != nil {
		return 0, 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, bs := range p.blocks {
		c, err := f.cyclesOf(bs.id)
		if err != nil {
			return 0, 0, err
		}
		if i == 0 || c < min {
			min = c
		}
		if i == 0 || c > max {
			max = c
		}
	}
	return min, max, nil
}

// ErrNoSpareBlocks reports a retirement that would leave the partition
// unable to hold its live data plus the frontier and GC reserve.
var ErrNoSpareBlocks = fmt.Errorf("ftl: retirement would exhaust spare blocks")

// errRetireSkip reports a retirement refused for a per-block reason —
// the block is the active write frontier, or pulling it out of the free
// pool would empty the GC reserve — while a different candidate may
// still retire.
var errRetireSkip = fmt.Errorf("ftl: block cannot retire right now")

// relocateLive moves every live page of bs to fresh locations through
// the normal write path, with the partition lock held — the shared core
// of scrub refresh and block retirement. The live set is snapshotted
// first (write mutates lbaOf, and an interleaved GC round may relocate
// parts of the block on its own; entries that moved underneath us are
// skipped). A page whose read fails uncorrectably is left in place with
// its stale mapping and counted, never invented from thin air.
func (f *FTL) relocateLive(p *Partition, bs *blockState) (moved, uncorrectable int, err error) {
	type liveEntry struct{ page, lpa int }
	var live []liveEntry
	for page, lpa := range bs.lbaOf {
		if lpa != invalidPPA {
			live = append(live, liveEntry{page, lpa})
		}
	}
	for _, le := range live {
		if bs.lbaOf[le.page] != le.lpa {
			continue // already moved by GC during this pass
		}
		dst := f.relocPage(&p.movePage)
		res, err := f.readPhys(bs.id, le.page, nil, dst, nil)
		if res != nil {
			p.RelocRetries += res.Retries
			bs.lastReads = res.BlockReads
		}
		if err != nil {
			if !errors.Is(err, controller.ErrUncorrectable) {
				return moved, uncorrectable, fmt.Errorf("ftl: relocation read %d.%d: %w", bs.id, le.page, err)
			}
			// A page the normal ladder lost gets one deep-retry
			// recovery attempt before scrub/retirement gives up on it.
			deep, derr := f.readPhysDeep(bs.id, le.page, dst)
			if deep != nil {
				p.RelocRetries += deep.Retries
			}
			switch {
			case derr == nil:
				p.DeepRecovered++
				res = deep
			case errors.Is(derr, controller.ErrUncorrectable):
				uncorrectable++
				continue // data lost; leave the stale mapping
			default:
				return moved, uncorrectable, fmt.Errorf("ftl: deep-retry relocation read %d.%d: %w", bs.id, le.page, derr)
			}
		}
		// Rewrite through the normal host path: allocation, mode
		// configuration and mapping update all apply.
		if _, err := f.write(p, le.lpa, res.Data); err != nil {
			return moved, uncorrectable, fmt.Errorf("ftl: relocation rewrite lpa %d: %w", le.lpa, err)
		}
		p.HostWrites-- // relocation traffic is not host traffic
		p.GCMoves++
		moved++
	}
	return moved, uncorrectable, nil
}

// RetireWorn takes every in-rotation block whose program/erase count is
// at or above the ceiling out of service, oldest-wear first, relocating
// live data through the normal write path. A candidate that happens to
// be the write frontier is skipped (a later pass catches it); retirement
// stops entirely — without error — once removing another block would
// violate the spare-block invariant, so a uniform-wear partition sheds
// blocks gradually instead of collapsing. It returns the number of
// blocks retired by this call.
func (f *FTL) RetireWorn(part string, ceiling float64) (int, error) {
	if ceiling <= 0 {
		return 0, fmt.Errorf("ftl: non-positive wear ceiling %g", ceiling)
	}
	p, err := f.Partition(part)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Rank candidates by wear so the most-cycled blocks go first.
	type cand struct {
		idx    int
		cycles float64
	}
	var worn []cand
	for i, bs := range p.blocks {
		if bs.retired {
			continue
		}
		c, err := f.cyclesOf(bs.id)
		if err != nil {
			return 0, err
		}
		if c >= ceiling {
			worn = append(worn, cand{i, c})
		}
	}
	sort.Slice(worn, func(a, b int) bool {
		if worn[a].cycles != worn[b].cycles {
			return worn[a].cycles > worn[b].cycles
		}
		return worn[a].idx < worn[b].idx
	})
	retired := 0
	for _, c := range worn {
		switch err := f.retire(p, c.idx); {
		case err == nil:
			retired++
		case errors.Is(err, errRetireSkip):
			continue // per-block refusal; a cooler candidate may retire
		case errors.Is(err, ErrNoSpareBlocks):
			// The spare-block accounting is independent of the candidate:
			// every remaining block would fail the same check.
			return retired, nil
		default:
			return retired, err
		}
	}
	return retired, nil
}

// retire removes one block from rotation with the partition lock held.
func (f *FTL) retire(p *Partition, blk int) error {
	if blk < 0 || blk >= len(p.blocks) {
		return fmt.Errorf("ftl: block %d outside partition %q", blk, p.Name)
	}
	bs := p.blocks[blk]
	if bs.retired {
		return nil
	}
	if blk == p.active {
		// Never retire the write frontier mid-fill; the caller's next
		// pass catches the block once the frontier has moved on.
		return errRetireSkip
	}
	// The partition must stay functional afterwards: enough in-rotation
	// blocks for the live data, the frontier and the GC reserve.
	usable, live := 0, 0
	for _, b := range p.blocks {
		if !b.retired {
			usable++
		}
		live += b.livePages
	}
	if usable-1 < 3 || live > (usable-3)*p.pages {
		return ErrNoSpareBlocks
	}
	// Relocate live data off the victim. Unreadable pages keep their
	// stale mapping pointing into the retired block (which is never
	// erased), so later reads surface the loss honestly.
	if _, _, err := f.relocateLive(p, bs); err != nil {
		return fmt.Errorf("ftl: retire block %d: %w", bs.id, err)
	}
	// An interleaved GC round may have erased the victim and promoted it
	// to the write frontier; retirement must then wait for a later pass.
	if blk == p.active {
		return errRetireSkip
	}
	// Drop the block from the free pool if it was parked there.
	for i, fp := range p.freePool {
		if fp == blk {
			if len(p.freePool) < 2 {
				return errRetireSkip // sole reserve block; sealed candidates may still go
			}
			p.freePool = append(p.freePool[:i], p.freePool[i+1:]...)
			break
		}
	}
	bs.retired = true
	p.RetiredBlocks++
	delete(p.scrubMarks, blk)
	return nil
}

// Retired returns the number of blocks the partition has taken out of
// rotation.
func (p *Partition) Retired() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.RetiredBlocks
}
