package array

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"xlnand/internal/obs"
)

// DriveLatency groups one drive's per-op-class latency summaries.
type DriveLatency struct {
	CleanRead   obs.HistSnapshot `json:"clean_read"`
	RetriedRead obs.HistSnapshot `json:"retried_read"`
	SoftRead    obs.HistSnapshot `json:"soft_read"`
	Write       obs.HistSnapshot `json:"write"`
}

// FleetLatency is the fleet-merged per-op-class latency view: the
// drives' class histograms (retired stacks included) plus the two
// front-end classes no single drive owns — reads served by parity
// reconstruction and rebuild page copies onto spares.
type FleetLatency struct {
	CleanRead    obs.HistSnapshot `json:"clean_read"`
	RetriedRead  obs.HistSnapshot `json:"retried_read"`
	SoftRead     obs.HistSnapshot `json:"soft_read"`
	DegradedRead obs.HistSnapshot `json:"degraded_read"`
	Write        obs.HistSnapshot `json:"write"`
	RebuildCopy  obs.HistSnapshot `json:"rebuild_copy"`
}

// DriveReport is one slot's telemetry slice of the fleet report,
// merged strictly in slot order. Drive is the logical slot; Physical
// identifies the stack serving it (>= Drives for an attached spare).
type DriveReport struct {
	Drive    int    `json:"drive"`
	Physical int    `json:"physical_drive"`
	Seed     uint64 `json:"seed"`

	Health      string             `json:"health,omitempty"`
	Transitions []HealthTransition `json:"health_transitions,omitempty"`

	HostReads  int `json:"host_reads"`
	HostWrites int `json:"host_writes"`
	GCMoves    int `json:"gc_moves"`
	Erases     int `json:"erases"`
	LostPages  int `json:"lost_pages"`

	// Recovery climate, summed over the drive's dies. CleanReads counts
	// reads the controller's stamped-page short-circuit served without
	// touching the decoder.
	RetryHist      []int `json:"retry_hist"`
	RetryRecovered int   `json:"retry_recovered"`
	Uncorrectable  int   `json:"uncorrectable"`
	SoftAttempts   int   `json:"soft_attempts"`
	SoftRecovered  int   `json:"soft_recovered"`
	CleanReads     int64 `json:"clean_reads"`

	// Latency holds the drive's per-op-class latency snapshots once any
	// op has been served.
	Latency *DriveLatency `json:"latency,omitempty"`

	UncorrectableReads int64 `json:"uncorrectable_reads"`
	WritebackErrors    int64 `json:"writeback_errors"`

	// Fault-layer climate: injected transient faults served by the
	// stack, host reads answered by peer reconstruction, bytes rebuilt
	// into results that way, and writes lost for good.
	InjectedFaults     int64 `json:"injected_faults,omitempty"`
	DegradedReads      int64 `json:"degraded_reads,omitempty"`
	ReconstructedBytes int64 `json:"reconstructed_bytes,omitempty"`
	LostWrites         int64 `json:"lost_writes,omitempty"`

	WearMin float64 `json:"wear_min_cycles"`
	WearMax float64 `json:"wear_max_cycles"`

	ModelledSeconds   float64 `json:"modelled_seconds"`
	AvgReadLatencyUs  float64 `json:"avg_read_latency_us"`
	AvgWriteLatencyUs float64 `json:"avg_write_latency_us"`
}

// FleetTotals is the merged climate across every drive.
type FleetTotals struct {
	HostReads  int `json:"host_reads"`
	HostWrites int `json:"host_writes"`
	GCMoves    int `json:"gc_moves"`
	Erases     int `json:"erases"`
	LostPages  int `json:"lost_pages"`

	RetryHist      []int `json:"retry_hist"`
	RetryRecovered int   `json:"retry_recovered"`
	SoftAttempts   int   `json:"soft_attempts"`
	SoftRecovered  int   `json:"soft_recovered"`
	CleanReads     int64 `json:"clean_reads"`

	UncorrectableReads int64 `json:"uncorrectable_reads"`
	// UBER is the fleet's observed uncorrectable bit error rate:
	// uncorrectable page reads × page bits over total bits read from
	// the drives (the host-observed counterpart of the paper's target).
	UBER float64 `json:"uber"`

	InjectedFaults     int64 `json:"injected_faults"`
	DegradedReads      int64 `json:"degraded_reads"`
	ReconstructedBytes int64 `json:"reconstructed_bytes"`
	LostWrites         int64 `json:"lost_writes"`
	ParityStaleEvents  int64 `json:"parity_stale_events"`
}

// FleetReport is the deterministic merged result of an array run.
type FleetReport struct {
	Drives      int     `json:"drives"`
	Seed        uint64  `json:"seed"`
	StripePages int     `json:"stripe_pages"`
	Redundancy  string  `json:"redundancy"`
	Spares      int     `json:"spares"`
	SparesFree  int     `json:"spares_free"`
	VolumePages int     `json:"volume_pages"`
	PageBytes   int     `json:"page_bytes"`
	Rounds      int64   `json:"rounds"`
	QoSStalls   int64   `json:"qos_stalls"`
	ClockSec    float64 `json:"modelled_clock_seconds"`
	// FleetIOPS is total tenant ops over the fleet's modelled clock.
	FleetIOPS float64 `json:"fleet_iops"`

	Cache   CacheStats    `json:"cache"`
	Tenants []TenantStats `json:"tenants"`
	// PerDrive is one entry per slot (a slot served by a spare reports
	// the spare's stack); Retired holds the final snapshots of stacks
	// that died mid-run, so their history is never silently dropped.
	PerDrive []DriveReport   `json:"per_drive"`
	Retired  []DriveReport   `json:"retired,omitempty"`
	Rebuilds []RebuildReport `json:"rebuilds,omitempty"`
	// Latency is the fleet-merged per-op-class latency view.
	Latency *FleetLatency `json:"latency,omitempty"`
	Totals  FleetTotals   `json:"totals"`
}

// slotReport renders one slot: the live stack's telemetry (or the dead
// stack's final snapshot) plus the slot's health history and
// degraded-mode counters.
func (a *Array) slotReport(s *slot) DriveReport {
	var rep DriveReport
	switch {
	case s.d != nil:
		rep = s.d.report()
	case s.final != nil:
		rep = *s.final
	default:
		rep = DriveReport{Physical: -1}
	}
	rep.Drive = s.id
	rep.Health = s.state.String()
	rep.Transitions = s.transitions
	rep.DegradedReads = s.degradedReads
	rep.ReconstructedBytes = s.reconBytes
	rep.LostWrites = s.lostWrites
	rep.WritebackErrors = s.wbErrors
	return rep
}

// Report assembles the fleet report. Call it between Drains (never
// while a round is in flight); the gather walks slots in index order
// so the output is byte-stable per seed.
func (a *Array) Report() *FleetReport {
	rep := &FleetReport{
		Drives:      a.cfg.Drives,
		Seed:        a.cfg.Seed,
		StripePages: a.cfg.StripePages,
		Redundancy:  a.lay.name,
		Spares:      a.cfg.Spares,
		SparesFree:  len(a.sparePool),
		VolumePages: a.volumePages,
		PageBytes:   a.pageBytes,
		Rounds:      a.rounds,
		QoSStalls:   a.stalls,
		ClockSec:    a.clock.Seconds(),
		Cache:       a.cache.stats,
		Tenants:     a.sched.stats(),
	}
	var ops int64
	for _, t := range rep.Tenants {
		if t.Name == rebuildTenant {
			continue
		}
		ops += t.Reads + t.Writes
	}
	if rep.ClockSec > 0 {
		rep.FleetIOPS = float64(ops) / rep.ClockSec
	}
	for _, s := range a.slots {
		rep.PerDrive = append(rep.PerDrive, a.slotReport(s))
		if s.final != nil && s.d != nil {
			// The slot is served by a spare now: the dead stack's last
			// snapshot moves to the retired list.
			rep.Retired = append(rep.Retired, *s.final)
		}
	}
	for _, rb := range a.rebuilds {
		rep.Rebuilds = append(rep.Rebuilds, *rb)
	}
	rep.Latency = a.fleetLatency()
	rep.Totals = mergeTotals(append(append([]DriveReport(nil), rep.PerDrive...), rep.Retired...), a.pageBytes)
	rep.Totals.ParityStaleEvents = a.parityStale
	return rep
}

// fleetLatency merges the per-drive class histograms (live members in
// slot order, then the retired accumulators) with the front-end-owned
// degraded-read and rebuild-copy classes. Merge is associative, so the
// grouping cannot change the summaries. Returns nil before any op.
func (a *Array) fleetLatency() *FleetLatency {
	var clean, retried, soft, write obs.LatencyHist
	for _, s := range a.slots {
		if s.d == nil {
			continue
		}
		clean.Merge(&s.d.latClean)
		retried.Merge(&s.d.latRetried)
		soft.Merge(&s.d.latSoft)
		write.Merge(&s.d.latWrite)
	}
	clean.Merge(&a.retired[0])
	retried.Merge(&a.retired[1])
	soft.Merge(&a.retired[2])
	write.Merge(&a.retired[3])
	total := clean.Count() + retried.Count() + soft.Count() + write.Count() +
		a.latDegraded.Count() + a.latRebuild.Count()
	if total == 0 {
		return nil
	}
	return &FleetLatency{
		CleanRead:    clean.Snapshot(),
		RetriedRead:  retried.Snapshot(),
		SoftRead:     soft.Snapshot(),
		DegradedRead: a.latDegraded.Snapshot(),
		Write:        write.Snapshot(),
		RebuildCopy:  a.latRebuild.Snapshot(),
	}
}

// mergeTotals folds per-drive reports into the fleet climate.
func mergeTotals(drives []DriveReport, pageBytes int) FleetTotals {
	var t FleetTotals
	for _, d := range drives {
		t.HostReads += d.HostReads
		t.HostWrites += d.HostWrites
		t.GCMoves += d.GCMoves
		t.Erases += d.Erases
		t.LostPages += d.LostPages
		if t.RetryHist == nil {
			t.RetryHist = make([]int, len(d.RetryHist))
		}
		for i, n := range d.RetryHist {
			t.RetryHist[i] += n
		}
		t.RetryRecovered += d.RetryRecovered
		t.SoftAttempts += d.SoftAttempts
		t.SoftRecovered += d.SoftRecovered
		t.CleanReads += d.CleanReads
		t.UncorrectableReads += d.UncorrectableReads
		t.InjectedFaults += d.InjectedFaults
		t.DegradedReads += d.DegradedReads
		t.ReconstructedBytes += d.ReconstructedBytes
		t.LostWrites += d.LostWrites
	}
	pageBits := float64(pageBytes) * 8
	bitsRead := float64(t.HostReads) * pageBits
	if bitsRead > 0 {
		t.UBER = float64(t.UncorrectableReads) * pageBits / bitsRead
	}
	return t
}

// JSON renders the report byte-stably (two-space indent, struct-order
// keys, no maps anywhere in the tree).
func (r *FleetReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Summary renders a short human-readable digest.
func (r *FleetReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d drives (%s, %d spare), %d volume pages (stripe %d), seed %d\n",
		r.Drives, r.Redundancy, r.Spares, r.VolumePages, r.StripePages, r.Seed)
	fmt.Fprintf(&b, "  clock %.6fs  rounds %d  stalls %d  fleet IOPS %.0f\n",
		r.ClockSec, r.Rounds, r.QoSStalls, r.FleetIOPS)
	fmt.Fprintf(&b, "  cache[%s cap %d]: hits %d misses %d (%.1f%%) evict %d writeback %d lost %d\n",
		r.Cache.PolicyName, r.Cache.Capacity, r.Cache.Hits, r.Cache.Misses,
		100*r.Cache.HitRate(), r.Cache.Evictions, r.Cache.Writebacks, r.Cache.WritebackLost)
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "  tenant %-12s reads %6d (hits %6d) writes %6d throttled %d",
			t.Name, t.Reads, t.CacheHits, t.Writes, t.Throttled)
		if t.Latency != nil {
			fmt.Fprintf(&b, "  p50/p99 %.1f/%.1fus", t.Latency.P50Us, t.Latency.P99Us)
		}
		if t.SLOTargetUs > 0 {
			fmt.Fprintf(&b, "  SLO %.0fus breaches %d", t.SLOTargetUs, t.SLOBreaches)
			if len(t.BreachRounds) > 0 {
				b.WriteString(" (rounds")
				for _, rd := range t.BreachRounds {
					b.WriteByte(' ')
					b.WriteString(strconv.FormatInt(rd, 10))
				}
				if t.SLOBreaches > int64(len(t.BreachRounds)) {
					b.WriteString(" ...")
				}
				b.WriteByte(')')
			}
		}
		b.WriteByte('\n')
	}
	if r.Latency != nil {
		lat := func(name string, s obs.HistSnapshot) {
			if s.Count == 0 {
				return
			}
			fmt.Fprintf(&b, "  lat %-13s n %8d  p50 %9.1fus  p99 %9.1fus  p99.9 %9.1fus  max %9.1fus\n",
				name, s.Count, s.P50Us, s.P99Us, s.P999Us, s.MaxUs)
		}
		lat("clean read", r.Latency.CleanRead)
		lat("retried read", r.Latency.RetriedRead)
		lat("soft read", r.Latency.SoftRead)
		lat("degraded read", r.Latency.DegradedRead)
		lat("write", r.Latency.Write)
		lat("rebuild copy", r.Latency.RebuildCopy)
	}
	for _, d := range r.PerDrive {
		if d.Health != "" && d.Health != "healthy" {
			fmt.Fprintf(&b, "  drive %d: %s  degraded reads %d  recon %d B  lost writes %d\n",
				d.Drive, d.Health, d.DegradedReads, d.ReconstructedBytes, d.LostWrites)
		}
	}
	for _, rb := range r.Rebuilds {
		state := "in progress"
		if rb.Complete {
			state = fmt.Sprintf("complete in %.3fs (%.1f MB/s)",
				rb.DoneClockSec-rb.StartClockSec, rb.MBPerSec)
		}
		fmt.Fprintf(&b, "  rebuild slot %d -> spare %d: %d pages (%d lost) %s\n",
			rb.Slot, rb.SpareDrive, rb.Pages, rb.Lost, state)
	}
	fmt.Fprintf(&b, "  totals: host R/W %d/%d  gc %d  erases %d  retries recovered %d  soft %d/%d  UBER %.3g\n",
		r.Totals.HostReads, r.Totals.HostWrites, r.Totals.GCMoves, r.Totals.Erases,
		r.Totals.RetryRecovered, r.Totals.SoftRecovered, r.Totals.SoftAttempts, r.Totals.UBER)
	if r.Totals.InjectedFaults+r.Totals.DegradedReads+r.Totals.LostWrites > 0 {
		fmt.Fprintf(&b, "  faults: injected %d  degraded reads %d  recon %d B  lost writes %d  parity stale %d\n",
			r.Totals.InjectedFaults, r.Totals.DegradedReads, r.Totals.ReconstructedBytes,
			r.Totals.LostWrites, r.Totals.ParityStaleEvents)
	}
	return b.String()
}

// PublishMetrics dumps the fleet's counters, gauges, and latency-class
// summaries into the registry: array-level series first, then each
// attached drive's dispatcher and FTL series labelled drive="<slot>".
// Publish-on-snapshot: nothing here runs on the round hot path. Call it
// between Drains, like Report.
func (a *Array) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	rep := a.Report()
	reg.SetGauge("array_drives", float64(rep.Drives))
	reg.SetGauge("array_spares_free", float64(rep.SparesFree))
	reg.SetGauge("array_clock_seconds", rep.ClockSec)
	reg.SetGauge("array_fleet_iops", rep.FleetIOPS)
	reg.AddCounter("array_rounds_total", float64(rep.Rounds))
	reg.AddCounter("array_qos_stalls_total", float64(rep.QoSStalls))
	reg.AddCounter("array_cache_hits_total", float64(rep.Cache.Hits))
	reg.AddCounter("array_cache_misses_total", float64(rep.Cache.Misses))
	reg.AddCounter("array_cache_writebacks_total", float64(rep.Cache.Writebacks))
	reg.AddCounter("array_degraded_reads_total", float64(rep.Totals.DegradedReads))
	reg.AddCounter("array_lost_writes_total", float64(rep.Totals.LostWrites))
	reg.AddCounter("array_parity_stale_total", float64(rep.Totals.ParityStaleEvents))
	for _, t := range rep.Tenants {
		reg.AddCounter(obs.Label("tenant_reads_total", "name", t.Name), float64(t.Reads))
		reg.AddCounter(obs.Label("tenant_writes_total", "name", t.Name), float64(t.Writes))
		reg.AddCounter(obs.Label("tenant_throttled_total", "name", t.Name), float64(t.Throttled))
		if t.SLOTargetUs > 0 {
			reg.SetGauge(obs.Label("tenant_slo_target_us", "name", t.Name), t.SLOTargetUs)
			reg.AddCounter(obs.Label("tenant_slo_breaches_total", "name", t.Name), float64(t.SLOBreaches))
		}
		if t.Latency != nil {
			reg.ObserveHist(obs.Label("tenant_latency_us", "name", t.Name), *t.Latency)
		}
	}
	if rep.Latency != nil {
		class := func(name string, s obs.HistSnapshot) {
			if s.Count > 0 {
				reg.ObserveHist(obs.Label("array_op_latency_us", "class", name), s)
			}
		}
		class("clean_read", rep.Latency.CleanRead)
		class("retried_read", rep.Latency.RetriedRead)
		class("soft_read", rep.Latency.SoftRead)
		class("degraded_read", rep.Latency.DegradedRead)
		class("write", rep.Latency.Write)
		class("rebuild_copy", rep.Latency.RebuildCopy)
	}
	for _, s := range a.slots {
		if s.d == nil {
			continue
		}
		label := `drive="` + strconv.Itoa(s.id) + `"`
		s.d.f.Dispatcher().PublishMetrics(reg, label)
		s.d.f.PublishMetrics(reg, label)
	}
}
