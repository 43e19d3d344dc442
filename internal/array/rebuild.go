// Background rebuild: when a dead slot gets a hot spare, a cursor
// sweeps the drive-local address space, reconstructing each chunk that
// holds live content from the peers the layout names (the mirror
// partner's copy; the XOR of the row under parity, which for the row's
// parity chunk is a recompute) and writing it onto the spare, through
// the same reconstruct-then-write path of the round pipeline that
// serves degraded reads. Rebuild traffic is just
// another QoS tenant — it competes for round budget through the same
// token bucket machinery as host tenants, so a throttled rebuild
// visibly stretches the repair window in the report.
package array

// rebuildTenant is the reserved QoS tenant name carrying rebuild I/O.
const rebuildTenant = "rebuild"

// rebuildCheckpointEvery is the progress-checkpoint stride in pages.
const rebuildCheckpointEvery = 32

// rbItem is one chunk of rebuild work planned for a round.
type rbItem struct {
	s   *slot
	lpa int

	skip bool // sources unavailable or overtaken this round: retry later
	lost bool // unrecoverable: counted, cursor moves on

	comps []*internalRead // the reads that XOR back to the chunk
	write *internalRead   // the spare write's result
}

// RebuildCheckpoint is one recorded point of rebuild progress.
type RebuildCheckpoint struct {
	Pages    int64   `json:"pages"`
	Round    int64   `json:"round"`
	ClockSec float64 `json:"clock_seconds"`
}

// RebuildReport is one slot's rebuild biography.
type RebuildReport struct {
	Slot          int     `json:"slot"`
	SpareDrive    int     `json:"spare_drive"`
	StartRound    int64   `json:"start_round"`
	StartClockSec float64 `json:"start_clock_seconds"`
	Pages         int64   `json:"pages_rebuilt"`
	Bytes         int64   `json:"bytes_rebuilt"`
	// Lost counts pages whose content could not be reconstructed (e.g.
	// a second fault inside the rebuild window, or stale parity).
	Lost         int64               `json:"pages_lost"`
	Complete     bool                `json:"complete"`
	DoneRound    int64               `json:"done_round,omitempty"`
	DoneClockSec float64             `json:"done_clock_seconds,omitempty"`
	MBPerSec     float64             `json:"rebuild_mb_per_sec,omitempty"`
	Checkpoints  []RebuildCheckpoint `json:"checkpoints,omitempty"`
}

// rebuildActive reports whether any slot is mid-rebuild.
func (a *Array) rebuildActive() bool {
	for _, s := range a.slots {
		if s.state == Rebuilding {
			return true
		}
	}
	return false
}

// attachSpare hands the next hot spare to a dead slot and starts its
// rebuild. No spare available leaves the slot dead; degraded operation
// continues through the redundancy layer.
func (a *Array) attachSpare(s *slot) {
	if len(a.sparePool) == 0 {
		return
	}
	d := a.sparePool[0]
	a.sparePool = a.sparePool[1:]
	s.d = d
	s.transition(Rebuilding, a.rounds, a.clock.Seconds())
	s.rebuilt = make([]bool, a.perDriveLPAs)
	s.cursor = 0
	s.stale = nil
	s.rb = &RebuildReport{
		Slot:          s.id,
		SpareDrive:    d.idx,
		StartRound:    a.rounds,
		StartClockSec: a.clock.Seconds(),
	}
	a.rebuilds = append(a.rebuilds, s.rb)
	a.trace.Instant2(hostTidRebuild, "rebuild_start", a.clock,
		"slot", int64(s.id), "spare", int64(d.idx))
}

// rebuildNeeded reports whether the slot's spare is missing live
// content at lpa: a data chunk (or mirror copy) whose page was written,
// or a derived chunk of a row with any written page. Everything else
// rebuilds for free.
func (a *Array) rebuildNeeded(s *slot, lpa int) bool {
	if pj := a.lay.pageOf(s.id, lpa); pj >= 0 {
		return a.written[pj]
	}
	return a.anyRowWritten(lpa)
}

// planRebuild sweeps each rebuilding slot's cursor and plans this
// round's rebuild items into the round scratch, bounded by a per-round
// budget and the rebuild tenant's token bucket. Pages with nothing to
// restore are marked rebuilt for free and do not consume budget.
func (a *Array) planRebuild() {
	for _, s := range a.slots {
		if s.state != Rebuilding {
			continue
		}
		for s.cursor < a.perDriveLPAs && s.rebuilt[s.cursor] {
			s.cursor++
		}
		budget := max(a.cfg.RoundOps/4, 1)
		for lpa := s.cursor; lpa < a.perDriveLPAs && budget > 0; lpa++ {
			if s.rebuilt[lpa] {
				continue
			}
			if !a.rebuildNeeded(s, lpa) {
				s.rebuilt[lpa] = true
				continue
			}
			if !a.rebuildTen.take() {
				a.rebuildTen.stats.Throttled++
				break
			}
			var it *rbItem
			a.scr.items, it = grow(a.scr.items)
			comps, bad := a.wantComps(s.id, lpa, -1, it.comps[:0])
			*it = rbItem{s: s, lpa: lpa, comps: comps,
				lost: bad == staleParity, // content existed only on the dead member
				skip: bad >= 0}           // a source is down too: retry a later round
			budget--
		}
	}
}

// finishRebuild folds a round's rebuild outcomes into the slots: marks
// restored pages, accounts tenant throughput and checkpoints, and
// promotes any slot whose sweep converged to restored.
func (a *Array) finishRebuild() {
	for i := range a.scr.items {
		it := &a.scr.items[i]
		s := it.s
		if it.lost {
			s.rebuilt[it.lpa] = true
			s.rb.Lost++
			a.rebuiltPages++
			continue
		}
		if it.skip || it.write == nil || it.write.err != nil {
			continue // retried in a later round
		}
		s.rebuilt[it.lpa] = true
		a.rebuiltPages++
		s.rb.Pages++
		s.rb.Bytes += int64(a.pageBytes)
		a.latRebuild.Record(it.write.lat)
		if a.lay.derived(it.lpa) == s.id {
			a.parityOK[it.lpa] = true
		}
		a.rebuildTen.stats.Writes++
		a.rebuildTen.stats.BytesWrite += int64(a.pageBytes)
		if s.rb.Pages%rebuildCheckpointEvery == 0 {
			s.rb.Checkpoints = append(s.rb.Checkpoints, RebuildCheckpoint{
				Pages: s.rb.Pages, Round: a.rounds, ClockSec: a.clock.Seconds(),
			})
			a.trace.Instant2(hostTidRebuild, "rebuild_checkpoint", a.clock,
				"slot", int64(s.id), "pages", s.rb.Pages)
		}
	}
	for _, s := range a.slots {
		if s.state != Rebuilding {
			continue
		}
		for s.cursor < a.perDriveLPAs && s.rebuilt[s.cursor] {
			s.cursor++
		}
		if s.cursor < a.perDriveLPAs {
			continue
		}
		s.transition(Restored, a.rounds, a.clock.Seconds())
		a.trace.Instant2(hostTidRebuild, "rebuild_done", a.clock,
			"slot", int64(s.id), "pages", s.rb.Pages)
		s.rb.Complete = true
		s.rb.DoneRound = a.rounds
		s.rb.DoneClockSec = a.clock.Seconds()
		if dt := s.rb.DoneClockSec - s.rb.StartClockSec; dt > 0 && s.rb.Bytes > 0 {
			s.rb.MBPerSec = float64(s.rb.Bytes) / (1 << 20) / dt
		}
		s.rebuilt = nil
		s.stale = nil
		a.rebuiltPages++ // restoring a slot is progress for the drain guard
	}
}

// abandonRebuild gives up on a rebuild that cannot converge (a second
// fault holding its sources down): remaining pages are counted lost,
// honestly, and the slot completes with losses on record.
func (a *Array) abandonRebuild() {
	for _, s := range a.slots {
		if s.state != Rebuilding {
			continue
		}
		for lpa := 0; lpa < a.perDriveLPAs; lpa++ {
			if !s.rebuilt[lpa] {
				if a.rebuildNeeded(s, lpa) {
					s.rb.Lost++
				}
				s.rebuilt[lpa] = true
			}
		}
	}
	a.finishRebuild()
}
