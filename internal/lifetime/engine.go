package lifetime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"xlnand/internal/controller"
	"xlnand/internal/dispatch"
	"xlnand/internal/ftl"
	"xlnand/internal/obs"
	"xlnand/internal/sim"
	"xlnand/internal/stats"
)

// phaseTraceTid is the phase annotator's thread within a drive's trace
// process (the dispatcher and the FTL own tids 1 and up).
const phaseTraceTid = 0

// InvariantError reports a violated end-to-end invariant. The scenario
// name and seed reproduce the failure exactly: rerunning the scenario
// with the same seed replays the identical operation and fault-injection
// sequence.
type InvariantError struct {
	Scenario string
	Seed     uint64
	Phase    string
	Detail   string
}

// Error implements the error interface.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("lifetime: invariant violated in scenario %q phase %q (reproduce with -scenario %s -seed %d): %s",
		e.Scenario, e.Phase, e.Scenario, e.Seed, e.Detail)
}

// partState is the engine's oracle for one partition: the version of
// every logical page it has written (page contents derive
// deterministically from scenario seed, partition, lpa and version, so
// the oracle holds no data — only counters).
type partState struct {
	idx int
	cfg PartitionConfig
	ws  int // working-set size in pages

	versions []int // per-lpa write count (0 = never written)
	written  []int // lpas written at least once, in first-write order

	uncorrectable int // cumulative decode failures

	// per-phase counters, reset by beginPhase
	reads, writes int
	allReads      int // every verified read (host + verify + refresh)
	readBits      int64
	corrected     int
	retries       int
	recovered     int
}

// engine runs one scenario.
type engine struct {
	sc  Scenario
	f   *ftl.FTL
	geo dispatch.Geometry
	rng *stats.RNG

	parts     []*partState
	pageBytes int
	scratch   []byte // expected-content buffer

	trace *obs.Stream // phase-annotation spans (nil = tracing disabled)

	opsSinceScrub int
	prevWear      [][]float64 // previous phase's (die, block) cycles

	// per-phase performance accumulators
	readBytes, writeBytes int64
	readTime, writeTime   time.Duration
}

// Run plays a scenario from fresh silicon to end of life and returns its
// report. Any invariant violation aborts the run with an
// *InvariantError carrying the reproducing seed.
func Run(sc Scenario) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	ctrlCfg := controller.DefaultConfig()
	switch {
	case sc.ReadRetry > 0:
		ctrlCfg.MaxRetries = sc.ReadRetry
	case sc.ReadRetry < 0:
		ctrlCfg.MaxRetries = 0 // single-shot read path
	}
	specs := make([]ftl.PartitionSpec, len(sc.Partitions))
	for i, pc := range sc.Partitions {
		specs[i] = ftl.PartitionSpec{Name: pc.Name, Blocks: pc.Blocks, Mode: pc.Mode}
	}
	f, err := ftl.Open(dispatch.Config{
		Dies:         sc.Dies,
		BlocksPerDie: sc.BlocksPerDie,
		Seed:         sc.Seed,
		Env:          sim.DefaultEnv(),
		Controller:   ctrlCfg,
		Family:       sc.Codec,
		Trace:        sc.Trace,
	}, specs)
	if err != nil {
		return nil, err
	}
	disp := f.Dispatcher()
	defer disp.Close()
	if sc.ReadRetry < 0 {
		// The single-shot ablation must be the pre-recovery pipeline
		// end to end: no FTL deep-retry rescue either.
		f.SetDeepRetry(false)
	}
	// The disturb-aware retry guard rides on the scrub policy's knobs (a
	// zero DisturbRetryBudget leaves it disabled).
	f.SetRetryGuard(sc.Scrub)

	e := &engine{
		sc:        sc,
		f:         f,
		geo:       disp.Geometry(),
		rng:       stats.NewRNG(sc.Seed),
		pageBytes: disp.Geometry().PageDataBytes,
	}
	e.scratch = make([]byte, e.pageBytes)
	sc.Trace.Thread(phaseTraceTid, "phase") // nil-safe, like Stream
	e.trace = sc.Trace.Stream()
	for die := 0; die < sc.Dies; die++ {
		if err := disp.WithController(die, func(c *controller.Controller) {
			c.Manager().SafetyMargin = safetyMargin
		}); err != nil {
			return nil, err
		}
	}
	for i, pc := range sc.Partitions {
		p, err := f.Partition(pc.Name)
		if err != nil {
			return nil, err
		}
		ws := pc.WorkingSet
		if ws == 0 {
			ws = p.Capacity() * 3 / 4
		}
		if ws > p.Capacity() {
			return nil, fmt.Errorf("lifetime: %s: partition %q working set %d exceeds capacity %d",
				sc.Name, pc.Name, ws, p.Capacity())
		}
		e.parts = append(e.parts, &partState{
			idx: i, cfg: pc, ws: ws,
			versions: make([]int, p.Capacity()),
		})
	}
	return e.run()
}

func (e *engine) invariantf(phase, format string, args ...any) error {
	return &InvariantError{
		Scenario: e.sc.Name, Seed: e.sc.Seed, Phase: phase,
		Detail: fmt.Sprintf(format, args...),
	}
}

// run is the top-level phase loop.
func (e *engine) run() (*Report, error) {
	rep := &Report{
		Scenario:     e.sc.Name,
		Description:  e.sc.Description,
		Seed:         e.sc.Seed,
		Dies:         e.sc.Dies,
		BlocksPerDie: e.sc.BlocksPerDie,
	}
	var err error
	if e.prevWear, err = e.wearSnapshot(); err != nil {
		return nil, err
	}
	for phi, ph := range e.sc.Phases {
		pr, err := e.runPhase(phi, ph)
		if err != nil {
			return nil, err
		}
		rep.Phases = append(rep.Phases, *pr)
		rep.Totals.add(pr)
	}
	rep.Totals.finish()
	if rep.Totals.UBER > e.sc.MaxUBER {
		last := e.sc.Phases[len(e.sc.Phases)-1].Name
		return nil, e.invariantf(last, "run UBER %.3e exceeds scenario ceiling %.3e (%d bits lost over %d read)",
			rep.Totals.UBER, e.sc.MaxUBER, rep.Totals.LostBits, rep.Totals.BitsRead)
	}
	return rep, nil
}

// runPhase applies the phase's stress, plays its traffic, runs
// maintenance (scrub cadence, retirement), checks invariants and fills
// the phase report.
func (e *engine) runPhase(phi int, ph Phase) (*PhaseReport, error) {
	pr := &PhaseReport{
		Name:         ph.Name,
		AgeCycles:    ph.AgeCycles,
		BakeHours:    ph.BakeHours,
		DisturbReads: ph.DisturbReads,
	}
	phaseStart := e.f.Dispatcher().Now()
	// Stress first: the phase's traffic sees the aged medium. Each aging
	// step rewrites every live page (every partition, since partitions
	// stripe over all dies) at the new wear.
	refresh := func() error { return e.refresh(ph.Name, pr) }
	if ph.AgeCycles > 0 {
		all := make([]int, e.geo.Dies)
		for die := range all {
			all[die] = die
		}
		if err := e.f.Age(all, ph.AgeCycles, refresh); err != nil {
			return nil, err
		}
	}
	for die, delta := range ph.AgeCyclesByDie {
		if delta > 0 {
			if err := e.f.Age([]int{die}, delta, refresh); err != nil {
				return nil, err
			}
		}
	}
	if ph.BakeHours > 0 {
		if err := e.f.Dispatcher().AdvanceTime(ph.BakeHours); err != nil {
			return nil, err
		}
	}
	if ph.DisturbReads > 0 {
		if err := e.f.Disturb(ph.DisturbReads); err != nil {
			return nil, err
		}
	}

	// Reset per-phase accumulators and snapshot maintenance baselines.
	e.readBytes, e.writeBytes = 0, 0
	e.readTime, e.writeTime = 0, 0
	type baseline struct{ gc, erases, deep, relocRetries int }
	base := make([]baseline, len(e.parts))
	for i, ps := range e.parts {
		p, err := e.f.Partition(ps.cfg.Name)
		if err != nil {
			return nil, err
		}
		base[i] = baseline{p.GCMoves, p.Erases, p.DeepRecovered, p.RelocRetries}
		ps.reads, ps.writes, ps.readBits, ps.corrected = 0, 0, 0, 0
		ps.allReads, ps.retries, ps.recovered = 0, 0, 0
	}
	start := e.f.Dispatcher().Now()

	// Traffic with the scrubber on its cadence.
	for op := 0; op < ph.Ops; op++ {
		if err := e.step(ph, pr); err != nil {
			return nil, err
		}
		e.opsSinceScrub++
		if e.sc.ScrubEvery > 0 && e.opsSinceScrub >= e.sc.ScrubEvery {
			e.opsSinceScrub = 0
			if err := e.scrubPass(ph.Name, pr); err != nil {
				return nil, err
			}
		}
	}
	// End-of-phase scrub heals the phase's accumulated stress before the
	// next fast-forward compounds it.
	if e.sc.ScrubEvery > 0 {
		if err := e.scrubPass(ph.Name, pr); err != nil {
			return nil, err
		}
	}
	// Retirement by wear ceiling.
	if e.sc.WearCeiling > 0 {
		for _, ps := range e.parts {
			n, err := e.f.RetireWorn(ps.cfg.Name, e.sc.WearCeiling)
			if err != nil {
				return nil, err
			}
			pr.RetiredBlocks += n
		}
	}

	// Performance on the modelled timeline.
	pr.MakespanMS = (e.f.Dispatcher().Now() - start).Seconds() * 1e3
	if e.readTime > 0 {
		pr.ReadMBps = float64(e.readBytes) / e.readTime.Seconds() / 1e6
	}
	if e.writeTime > 0 {
		pr.WriteMBps = float64(e.writeBytes) / e.writeTime.Seconds() / 1e6
	}

	// Wear: snapshot, monotonicity invariant, global min/max.
	wear, err := e.wearSnapshot()
	if err != nil {
		return nil, err
	}
	pr.WearMin, pr.WearMax = wear[0][0], wear[0][0]
	for die := range wear {
		for blk := range wear[die] {
			w := wear[die][blk]
			if w < e.prevWear[die][blk] {
				return nil, e.invariantf(ph.Name, "wear of die %d block %d went backwards: %g -> %g",
					die, blk, e.prevWear[die][blk], w)
			}
			if w < pr.WearMin {
				pr.WearMin = w
			}
			if w > pr.WearMax {
				pr.WearMax = w
			}
		}
	}
	e.prevWear = wear

	// Per-die calibration-cache state: the read-reference step each
	// die's manager predicts for its own most-worn blocks — the
	// observable that asymmetric-wear scenarios pin (diverged caches)
	// and uniform ones keep in lockstep.
	pr.CalibSteps = make([]int, e.geo.Dies)
	for die := 0; die < e.geo.Dies; die++ {
		maxWear := 0.0
		for _, w := range wear[die] {
			if w > maxWear {
				maxWear = w
			}
		}
		die := die
		if err := e.f.Dispatcher().WithController(die, func(c *controller.Controller) {
			pr.CalibSteps[die] = c.Manager().PredictStep(maxWear)
		}); err != nil {
			return nil, err
		}
	}

	// Per-partition slice, observation and policy retune.
	for i, ps := range e.parts {
		p, err := e.f.Partition(ps.cfg.Name)
		if err != nil {
			return nil, err
		}
		wmin, wmax, err := e.f.WearSpread(ps.cfg.Name)
		if err != nil {
			return nil, err
		}
		correctedPerKB := 0.0
		if ps.readBits > 0 {
			correctedPerKB = float64(ps.corrected) * 8192 / float64(ps.readBits)
		}
		mode, err := e.f.ModeOf(ps.cfg.Name)
		if err != nil {
			return nil, err
		}
		retriesPerRead := 0.0
		if ps.allReads > 0 {
			retriesPerRead = float64(ps.retries) / float64(ps.allReads)
		}
		if e.sc.Policy != nil {
			next := e.sc.Policy.Retune(Observation{
				Partition:          ps.cfg.Name,
				Mode:               mode,
				Phase:              phi,
				MaxWear:            wmax,
				CorrectedPerKB:     correctedPerKB,
				UncorrectableReads: ps.uncorrectable,
				RetriesPerRead:     retriesPerRead,
				RecoveredReads:     ps.recovered,
				RelocRetries:       p.RelocRetries - base[i].relocRetries,
			})
			if next != mode {
				if err := e.f.SetMode(ps.cfg.Name, next); err != nil {
					return nil, err
				}
				mode = next
			}
		}
		pr.Partitions = append(pr.Partitions, PartitionPhase{
			Name:           ps.cfg.Name,
			Mode:           mode.String(),
			Reads:          ps.reads,
			Writes:         ps.writes,
			CorrectedBits:  ps.corrected,
			CorrectedPerKB: correctedPerKB,
			Uncorrectable:  ps.uncorrectable,
			Retries:        ps.retries,
			Recovered:      ps.recovered,
			WearMin:        wmin,
			WearMax:        wmax,
			Retired:        p.Retired(),
			DeepRecovered:  p.DeepRecovered,
		})
		pr.GCMoves += p.GCMoves - base[i].gc
		pr.Erases += p.Erases - base[i].erases
		pr.DeepRecovered += p.DeepRecovered - base[i].deep
		pr.RelocRetries += p.RelocRetries - base[i].relocRetries
		pr.PendingScrubs += p.PendingScrubs()
	}
	if pr.BitsRead > 0 {
		pr.UBER = float64(pr.LostBits) / float64(pr.BitsRead)
	}
	// One span per biography phase on the dispatcher's virtual clock,
	// named after the phase, wrapping its stress and traffic segments.
	e.trace.Span2(phaseTraceTid, ph.Name, phaseStart, e.f.Dispatcher().Now()-phaseStart,
		"ops", int64(ph.Ops), "reads", int64(pr.HostReads))
	return pr, nil
}

// step plays one host operation.
func (e *engine) step(ph Phase, pr *PhaseReport) error {
	ps := e.parts[e.rng.Intn(len(e.parts))]
	if len(ps.written) > 0 && e.rng.Bernoulli(ph.ReadFraction) {
		lpa := ps.written[e.rng.Intn(len(ps.written))]
		_, err := e.verifiedRead(ph.Name, ps, lpa, pr, readHost)
		return err
	}
	lpa := e.rng.Intn(ps.ws)
	ps.versions[lpa]++
	if ps.versions[lpa] == 1 {
		ps.written = append(ps.written, lpa)
	}
	wr, err := e.f.Write(ps.cfg.Name, lpa, e.content(ps, lpa, ps.versions[lpa]))
	if err != nil {
		return fmt.Errorf("lifetime: %s phase %q: host write %q/%d: %w",
			e.sc.Name, ph.Name, ps.cfg.Name, lpa, err)
	}
	pr.HostWrites++
	ps.writes++
	e.writeBytes += int64(e.pageBytes)
	e.writeTime += wr.Latency.Program
	return nil
}

// readKind labels who issued a verified read; it selects which report
// counter the read lands in, nothing else.
type readKind int

const (
	readHost    readKind = iota // host traffic (health-checked)
	readVerify                  // post-scrub heal check
	readRefresh                 // stepped-aging data refresh
)

// verifiedRead reads one live logical page, verifies it against the
// oracle and accounts reliability statistics identically for every
// caller (host traffic, scrub heal checks, aging refreshes), so the
// engine's UBER bookkeeping cannot diverge between paths. It returns
// the decoded page on success and nil after an uncorrectable read
// (which is accounted as data loss, not an error); any other failure —
// including the silent-corruption invariant — is fatal.
func (e *engine) verifiedRead(phase string, ps *partState, lpa int, pr *PhaseReport, kind readKind) ([]byte, error) {
	data, res, err := e.f.ReadInto(ps.cfg.Name, lpa, nil)
	bitsRead := int64(e.pageBytes) * 8
	pr.BitsRead += bitsRead
	ps.readBits += bitsRead
	ps.allReads++
	switch kind {
	case readHost:
		pr.HostReads++
		ps.reads++
	case readVerify:
		pr.VerifyReads++
	case readRefresh:
		pr.RefreshReads++
	}
	if res != nil {
		// Recovery-ladder climate: every re-sense is counted, successful
		// or not, and a read the ladder saved is a recovered read.
		pr.Retries += res.Retries
		ps.retries += res.Retries
		pr.RetryHist.Add(res.Retries)
		if err == nil && res.Retries > 0 {
			pr.RecoveredReads++
			ps.recovered++
		}
		// Soft-decision climate: component senses paid by the soft rung,
		// and reads only it could save.
		pr.SoftSenses += res.SoftSenses
		if err == nil && res.Soft {
			pr.SoftRecovered++
		}
	}
	expect := e.content(ps, lpa, ps.versions[lpa])
	if err != nil {
		if !errors.Is(err, controller.ErrUncorrectable) {
			return nil, fmt.Errorf("lifetime: %s phase %q: read %q/%d: %w",
				e.sc.Name, phase, ps.cfg.Name, lpa, err)
		}
		pr.UncorrectableReads++
		ps.uncorrectable++
		lost := bitsRead
		if res != nil && len(res.Data) == len(expect) {
			lost = int64(diffBits(res.Data, expect))
			e.readTime += res.Latency.Total()
			e.readBytes += int64(e.pageBytes)
		}
		pr.LostBits += lost
		return nil, nil
	}
	e.readTime += res.Latency.Total()
	e.readBytes += int64(e.pageBytes)
	if !bytes.Equal(data, expect) {
		if res.Retries > 0 {
			// The dedicated recovery invariant: a read the ladder
			// rescued must never return wrong data silently — a shifted
			// re-sense that "decodes" into a different codeword would be
			// worse than the loss it papers over.
			return nil, e.invariantf(phase,
				"read recovery returned wrong data silently: partition %q lpa %d version %d decoded after %d retries at offset step %d but differs from written content in %d bits",
				ps.cfg.Name, lpa, ps.versions[lpa], res.Retries, res.AppliedOffset, diffBits(data, expect))
		}
		return nil, e.invariantf(phase,
			"silent corruption: partition %q lpa %d version %d decoded successfully but differs from written content in %d bits",
			ps.cfg.Name, lpa, ps.versions[lpa], diffBits(data, expect))
	}
	pr.CorrectedBits += res.Corrected
	ps.corrected += res.Corrected
	pr.CorrectedHist.Add(res.Corrected)
	if kind == readHost && e.sc.ScrubEvery > 0 {
		if _, err := e.f.CheckReadHealth(ps.cfg.Name, lpa, res, e.sc.Scrub); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// scrubPass runs the scrubber over every partition and verifies its
// healing claim: every logical page that was live on a marked block must
// be readable (and correct) afterwards, less the losses the scrub report
// itself declared.
func (e *engine) scrubPass(phase string, pr *PhaseReport) error {
	for _, ps := range e.parts {
		name := ps.cfg.Name
		marks, err := e.f.ScrubMarks(name)
		if err != nil {
			return err
		}
		if len(marks) == 0 {
			continue
		}
		marked := make(map[int]bool, len(marks))
		for _, blk := range marks {
			marked[blk] = true
		}
		var toVerify []int
		for _, lpa := range ps.written {
			blk, err := e.f.BlockOf(name, lpa)
			if err != nil {
				continue // trimmed or lost mapping; nothing to verify
			}
			if marked[blk] {
				toVerify = append(toVerify, lpa)
			}
		}
		p, err := e.f.Partition(name)
		if err != nil {
			return err
		}
		lostBefore := p.LostPages
		srep, err := e.f.Scrub(name)
		if err != nil {
			return fmt.Errorf("lifetime: %s phase %q: scrub %q: %w", e.sc.Name, phase, name, err)
		}
		pr.ScrubPasses++
		pr.BlocksRefreshed += srep.BlocksRefreshed
		pr.PagesScrubbed += srep.PagesMoved
		// The scrub's own relocation writes can trigger GC rounds whose
		// uncorrectable reads lose pages (tracked in LostPages, not in
		// the scrub report); those losses are declared too, so the heal
		// check must not pin them on the scrubber.
		allowed := srep.Uncorrectable + (p.LostPages - lostBefore)
		before := pr.UncorrectableReads
		for _, lpa := range toVerify {
			if _, err := e.verifiedRead(phase, ps, lpa, pr, readVerify); err != nil {
				return err
			}
			if failures := pr.UncorrectableReads - before; failures > allowed {
				return e.invariantf(phase,
					"scrub of %q claimed %d unrecoverable pages but left lpa %d (and %d total) unreadable",
					name, srep.Uncorrectable, lpa, failures)
			}
		}
	}
	return nil
}

// refresh rewrites every live logical page at the device's current wear,
// verifying each against the oracle on the way through. Unreadable pages
// are data loss (counted, left in place); readable pages are rewritten
// from the decoded content, never from the oracle, so a miscorrection
// cannot be silently healed.
func (e *engine) refresh(phase string, pr *PhaseReport) error {
	for _, ps := range e.parts {
		for _, lpa := range ps.written {
			data, err := e.verifiedRead(phase, ps, lpa, pr, readRefresh)
			if err != nil {
				return err
			}
			if data == nil {
				continue // unreadable: accounted as loss, left in place
			}
			if _, err := e.f.Write(ps.cfg.Name, lpa, data); err != nil {
				return fmt.Errorf("lifetime: %s phase %q: refresh write %q/%d: %w",
					e.sc.Name, phase, ps.cfg.Name, lpa, err)
			}
			pr.RefreshedPages++
		}
	}
	return nil
}

// wearSnapshot reads every block's cycle count.
func (e *engine) wearSnapshot() ([][]float64, error) {
	out := make([][]float64, e.geo.Dies)
	for die := range out {
		out[die] = make([]float64, e.geo.BlocksPerDie)
		for blk := range out[die] {
			c, err := e.f.Dispatcher().Cycles(die, blk)
			if err != nil {
				return nil, err
			}
			out[die][blk] = c
		}
	}
	return out, nil
}

// content deterministically regenerates the page content of (partition,
// lpa, version) into the engine's scratch buffer. The mapping is a pure
// function of the scenario seed, so the oracle never stores data.
func (e *engine) content(ps *partState, lpa, version int) []byte {
	h := e.sc.Seed
	for _, v := range [3]uint64{uint64(ps.idx) + 1, uint64(lpa) + 1, uint64(version)} {
		h = (h ^ v) * 0x100000001b3
	}
	r := stats.NewRNG(h)
	for i := 0; i+8 <= len(e.scratch); i += 8 {
		binary.LittleEndian.PutUint64(e.scratch[i:], r.Uint64())
	}
	return e.scratch
}

// diffBits counts differing bits between equal-length buffers.
func diffBits(a, b []byte) int {
	n := 0
	for i := range a {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}
