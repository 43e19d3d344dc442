package array

import (
	"fmt"
	"sync"
	"time"

	"xlnand/internal/controller"
	"xlnand/internal/dispatch"
	"xlnand/internal/ftl"
	"xlnand/internal/obs"
	"xlnand/internal/sim"
)

// volPartition is the single FTL partition backing a drive's slice of
// the volume.
const volPartition = "vol"

// driveOp is one operation bound for a specific physical drive within
// a phase: the drive-local logical page, the direction, and exactly one
// of two result sinks — a host Result slot or an internal read slot.
// slot is the logical array slot the drive currently serves; host
// results report it as the serving drive. Sinks are owned exclusively
// by one worker between a phase's dispatch and its barrier.
type driveOp struct {
	write bool
	lpa   int
	slot  int
	data  []byte
	// dst, for reads, is the destination the page decodes straight into:
	// the caller-owned Op.Buf (Result.Data aliases it) or an internal
	// sink's page. nil reads allocate their own copy.
	dst []byte
	res *Result
	out *internalRead
}

// internalRead is the sink of a drive op with no host result slot: RMW
// old values, reconstruction peers, parity updates, rebuild traffic.
// Owned by exactly one worker between dispatch and barrier. buf is the
// page an internal read decodes into, kept with the pooled sink.
type internalRead struct {
	data []byte
	err  error
	lat  time.Duration
	buf  []byte
}

// fill routes an op's outcome to its sink. Latency accumulates rather
// than assigns so a recovery re-dispatch of the same host result keeps
// the failed attempt's cost on the books.
func (op *driveOp) fill(data []byte, lat time.Duration, err error) {
	if op.out != nil {
		op.out.data = data
		op.out.err = err
		op.out.lat += lat
		return
	}
	if op.res == nil {
		return
	}
	op.res.Drive = op.slot
	op.res.Err = err
	if err == nil && !op.write && data != nil {
		op.res.Data = data
	}
	op.res.Latency += lat
}

// drive is one physical member of the array: a full dispatcher + FTL
// stack (ftl.Open) with a dedicated worker goroutine consuming
// whole-phase batches, plus its deterministic fault state.
type drive struct {
	idx  int
	seed uint64
	f    *ftl.FTL
	part *ftl.Partition

	jobs chan driveJob
	done chan struct{}

	// Fault state, set once before the worker sees traffic: transient
	// refusal rate, modelled-latency multiplier, and the seeded
	// splitmix64 stream behind faultRoll. frng is worker-confined.
	errRate   float64
	latFactor float64
	frng      uint64

	// Perf accumulators, touched only by the worker goroutine between
	// barriers and by the front end after them.
	readOps, writeOps  int64
	readLat, writeLat  time.Duration
	uncorrectableReads int64
	injected           int64         // injected transient faults (per refused attempt)
	roundElapsed       time.Duration // modelled time this drive spent in the current phase

	// Per-op-class latency histograms, same ownership discipline as the
	// accumulators above. Always recorded (Record is a few nanoseconds
	// against multi-microsecond ops and never allocates); snapshotted
	// into the drive report and merged fleet-wide in slot order.
	latClean   obs.LatencyHist // reads decoded without any recovery rung
	latRetried obs.LatencyHist // reads that paid the hard retry ladder
	latSoft    obs.LatencyHist // reads that escalated to soft multi-sense
	latWrite   obs.LatencyHist

	closed bool
}

type driveJob struct {
	batch []driveOp
	wg    *sync.WaitGroup
}

// runPhase hands each slot's non-empty batch to its attached member,
// blocks at the barrier and empties the batches for the next phase;
// returns the phase's critical path (the slowest member's modelled
// time). Batches for slots with no member are a planner bug.
func (a *Array) runPhase(batches [][]driveOp) time.Duration {
	// a.phaseWG is reusable: the barrier below returns only once the
	// count is back to zero, and phases never overlap on the front-end
	// goroutine — hoisting it off the stack saves one heap allocation
	// per phase (the pointer escapes through the job channel).
	wg := &a.phaseWG
	for i, b := range batches {
		if len(b) == 0 {
			continue
		}
		d := a.slots[i].d
		if d == nil {
			panic(fmt.Sprintf("array: phase batch for detached slot %d", i))
		}
		wg.Add(1)
		d.jobs <- driveJob{batch: b, wg: wg}
	}
	wg.Wait()
	var crit time.Duration
	for i, b := range batches {
		if len(b) > 0 {
			crit = max(crit, a.slots[i].d.roundElapsed)
			batches[i] = b[:0]
		}
	}
	return crit
}

// newDrive builds one drive: Dies×BlocksPerDie of NAND behind its own
// dispatcher, with a single volume partition spanning every block.
func newDrive(idx int, cfg Config, env sim.Env, ctrlCfg controller.Config) (*drive, error) {
	seed := ftl.DriveSeed(cfg.Seed, idx)
	// Each drive is its own trace process (pid = index + 1; pid 0 is
	// the host front end); dispatch registers the bus/codec/die threads
	// and the FTL its maintenance thread. The FTL's stream is appended
	// only from the drive worker, preserving the single-writer contract.
	var proc *obs.Proc
	if cfg.Trace != nil {
		proc = cfg.Trace.Process(int32(idx+1), fmt.Sprintf("drive %d", idx))
	}
	f, err := ftl.Open(dispatch.Config{
		Dies:         cfg.DiesPerDrive,
		BlocksPerDie: cfg.BlocksPerDie,
		Seed:         seed,
		Env:          env,
		Controller:   ctrlCfg,
		Family:       cfg.Family,
		Trace:        proc,
	}, []ftl.PartitionSpec{
		{Name: volPartition, Blocks: cfg.DiesPerDrive * cfg.BlocksPerDie},
	})
	if err != nil {
		return nil, fmt.Errorf("array: drive %d: %w", idx, err)
	}
	d := &drive{
		idx:  idx,
		seed: seed,
		f:    f,
		part: f.Partitions()[0],
		jobs: make(chan driveJob),
		done: make(chan struct{}),
	}
	go d.worker()
	return d, nil
}

// setFault arms the drive's deterministic fault stream. Called before
// the drive sees any traffic.
func (d *drive) setFault(f DriveFault, planSeed uint64) {
	d.errRate = f.TransientErrRate
	d.latFactor = f.LatencyFactor
	d.frng = d.seed ^ planSeed ^ uint64(d.idx+1)*faultSeedStride
}

// worker consumes phase batches. Each batch executes strictly in order
// on this drive's own stack; concurrency exists only across drives. A
// latency-degradation fault inflates the drive's contribution to the
// round's critical path without touching the stack's own clock.
func (d *drive) worker() {
	defer close(d.done)
	for job := range d.jobs {
		d.roundElapsed = 0
		before := d.f.Dispatcher().Now()
		for i := range job.batch {
			d.execute(&job.batch[i])
		}
		elapsed := d.f.Dispatcher().Now() - before
		if d.latFactor > 1 {
			elapsed = time.Duration(float64(elapsed) * d.latFactor)
		}
		d.roundElapsed = elapsed
		job.wg.Done()
	}
}

// execute runs one op through the FTL and fills its sink. Transient
// faults roll per attempt: a refused op retries immediately up to
// faultRetries times before ErrDriveFault escapes the drive.
func (d *drive) execute(op *driveOp) {
	attempts := 0
	for d.faultRoll() {
		d.injected++
		attempts++
		if attempts > faultRetries {
			if op.write {
				d.writeOps++
			} else {
				d.readOps++
			}
			op.fill(nil, 0, fmt.Errorf("array: drive %d lpa %d: %w", d.idx, op.lpa, ErrDriveFault))
			return
		}
	}
	if op.write {
		wr, err := d.f.Write(volPartition, op.lpa, op.data)
		d.writeOps++
		var lat time.Duration
		if wr != nil {
			lat = wr.Latency.Total()
			d.writeLat += lat
			d.latWrite.Record(lat)
		}
		op.fill(nil, lat, err)
		return
	}
	data, rr, err := d.f.ReadInto(volPartition, op.lpa, op.dst)
	d.readOps++
	var lat time.Duration
	if rr != nil {
		lat = rr.Latency.Total()
		d.readLat += lat
		if err == nil {
			// Classify by how hard the read worked: the soft multi-sense
			// rung dominates the hard ladder, which dominates clean.
			switch {
			case rr.Soft:
				d.latSoft.Record(lat)
			case rr.Retries > 0:
				d.latRetried.Record(lat)
			default:
				d.latClean.Record(lat)
			}
		}
	}
	if err != nil {
		d.uncorrectableReads++
	}
	op.fill(data, lat, err)
}

// report gathers this drive's telemetry. Called by the front end only
// between barriers, so it races with nothing.
func (d *drive) report() DriveReport {
	rep := DriveReport{
		Drive:     d.idx,
		Physical:  d.idx,
		Seed:      d.seed,
		RetryHist: make([]int, controller.RetryHistBuckets),
	}
	rep.HostReads = d.part.HostReads
	rep.HostWrites = d.part.HostWrites
	rep.GCMoves = d.part.GCMoves
	rep.Erases = d.part.Erases
	rep.LostPages = d.part.LostPages
	rep.UncorrectableReads = d.uncorrectableReads
	rep.InjectedFaults = d.injected

	geo := d.f.Dispatcher().Geometry()
	for die := 0; die < geo.Dies; die++ {
		c := d.f.Dispatcher().Controller(die)
		m := c.Manager()
		hist := m.RetryHistogram()
		for i, n := range hist {
			rep.RetryHist[i] += n
		}
		rep.RetryRecovered += m.Recovered()
		rep.Uncorrectable += m.Uncorrectables()
		attempts, recovered := m.SoftStats()
		rep.SoftAttempts += attempts
		rep.SoftRecovered += recovered
	}
	if wmin, wmax, err := d.f.WearSpread(volPartition); err == nil {
		rep.WearMin = wmin
		rep.WearMax = wmax
	}
	rep.CleanReads = int64(d.f.Dispatcher().CleanHits())
	if d.latClean.Count()+d.latRetried.Count()+d.latSoft.Count()+d.latWrite.Count() > 0 {
		rep.Latency = &DriveLatency{
			CleanRead:   d.latClean.Snapshot(),
			RetriedRead: d.latRetried.Snapshot(),
			SoftRead:    d.latSoft.Snapshot(),
			Write:       d.latWrite.Snapshot(),
		}
	}
	rep.ModelledSeconds = d.f.Dispatcher().Now().Seconds()
	if d.readOps > 0 {
		rep.AvgReadLatencyUs = float64(d.readLat.Microseconds()) / float64(d.readOps)
	}
	if d.writeOps > 0 {
		rep.AvgWriteLatencyUs = float64(d.writeLat.Microseconds()) / float64(d.writeOps)
	}
	return rep
}

// close stops the worker and releases the dispatcher. Idempotent: a
// drive killed mid-run is closed again by Array.Close harmlessly.
func (d *drive) close() {
	if d.closed {
		return
	}
	d.closed = true
	close(d.jobs)
	<-d.done
	d.f.Dispatcher().Close()
}
