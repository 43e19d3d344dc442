// The round pipeline: one executor for every redundancy layout. The
// package comment describes its stages; roundScratch holds its state.
package array

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// xorInto accumulates src into dst. Parity accumulation and degraded-
// read reconstruction both funnel through here, so the loop runs
// word-parallel: uint64 8-byte chunks with a byte tail (the unaligned
// load/store pair compiles to single MOVs on the targets we care
// about). XOR is bitwise, so chunking cannot change the result.
func xorInto(dst, src []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// xorPages overwrites dst with the XOR of the components once all of
// them have been read; it returns the slowest read's latency, or the
// first read error with dst untouched.
func xorPages(dst []byte, comps []*internalRead) (lat time.Duration, err error) {
	for _, c := range comps {
		if c.err != nil {
			return 0, c.err
		}
		lat = max(lat, c.lat)
	}
	clear(dst)
	for _, c := range comps {
		xorInto(dst, c.data)
	}
	return lat, nil
}

// action is one drive-bound host operation in round order: a read miss
// or a write leaving the cache layer (res == nil for cache write-backs,
// which have no host result slot). buf is a read's Op.Buf.
type action struct {
	write bool
	page  int
	data  []byte
	buf   []byte
	res   *Result
}

// hostRead is one host read miss in flight: served straight from the
// home slot (a degraded read when that is not drv, the page's primary),
// or, with slot < 0, reconstructed by XORing comps into dst. Kept so a
// persistent transient fault can be recovered in phase 2.
type hostRead struct {
	res       *Result
	page      int
	slot, drv int
	dst       []byte
	comps     []*internalRead
}

// pwrite is one write reaching the drives this round: its writable homes
// with one sink each (a nil sink means act.res carries the outcome), and
// for a write that dirties a derived chunk the row plan it feeds.
type pwrite struct {
	act      *action
	lpa      int
	n        int
	slots    [maxCopies]int
	outs     [maxCopies]*internalRead
	row      int           // index into scratch rows, -1 without a derived chunk
	degraded bool          // no writable home: the derived chunk alone carries the content
	oldData  *internalRead // RMW old value
	ok       bool          // landed on at least one home
}

// op is the drive op carrying the write to its i-th home.
func (w *pwrite) op(i int) driveOp {
	op := driveOp{write: true, lpa: w.lpa, slot: w.slots[i], data: w.act.data, out: w.outs[i]}
	if op.out == nil {
		op.res = w.act.res
	}
	return op
}

// err is the outcome of the write to its i-th home.
func (w *pwrite) err(i int) error {
	if w.outs[i] == nil {
		return w.act.res.Err
	}
	return w.outs[i].err
}

// prow accumulates one touched derived chunk's update plan: either a
// delta chain (old parity ⊕ old data ⊕ new data per write) or an
// absolute recompute from the row's current values.
type prow struct {
	l, pd     int
	absolute  bool
	skip      bool // derived slot unwritable: updates are dropped, honestly
	landed    bool // one of its writes landed
	oldParity *internalRead
	peers     []peerRead
	writes    []int // indexes into the round's writes, op order
	stage     *internalRead
}

// peerRead is one data chunk of a row under absolute recompute: had
// reports content from before the round, wanted into ir (nil when the
// member cannot be read).
type peerRead struct {
	page int
	had  bool
	ir   *internalRead
}

// loseWrite accounts one write that landed nowhere, honestly: a result
// slot gets the typed error; a write-back bumps the cache-loss counter.
func (a *Array) loseWrite(s *slot, act *action, cause error) {
	s.lostWrites++
	if act.res != nil {
		act.res.Drive = s.id
		act.res.Err = fmt.Errorf("array: write page %d lost: %w", act.page, cause)
		return
	}
	a.cache.stats.WritebackLost++
}

// loseUnplaced is loseWrite for a write no member could even be tried
// for; a write-back counts the slot's write-back error here, since no
// target outcome will.
func (a *Array) loseUnplaced(s *slot, act *action) {
	if act.res == nil {
		s.wbErrors++
	}
	a.loseWrite(s, act, ErrDriveDead)
}

// execRound executes one round's drive-bound actions, interleaving
// rebuild traffic when allowed, and returns the round's accumulated
// critical-path time.
func (a *Array) execRound(acts []action, allowRebuild bool) time.Duration {
	sc := &a.scr
	if allowRebuild {
		a.planRebuild()
	}
	for i := range acts {
		if act := &acts[i]; act.write {
			a.planWrite(act)
		} else if wi := sc.fwd[act.page]; wi != 0 {
			// A write of the page waits for phase 3 and is the newest
			// version: forward it host-side.
			act.res.Drive, _ = a.lay.locate(act.page)
			act.res.Data = copyInto(act.buf, sc.pw[wi-1].act.data)
			act.res.Latency = hitLatency
		} else if err := a.stageRead(act.res, act.page, act.buf, -1); err != nil {
			act.res.Drive, _ = a.lay.locate(act.page)
			act.res.Err = err
		}
	}

	// Phase 1, then phase 2 for the reads a transient fault refused.
	crit := a.runReads(0)
	served := len(sc.reads)
	for i := 0; i < served; i++ {
		hr := sc.reads[i]
		if fault := hr.res.Err; hr.slot >= 0 && errors.Is(fault, ErrDriveFault) {
			hr.res.Err = nil
			if a.stageRead(hr.res, hr.page, hr.dst, hr.slot) != nil {
				hr.res.Err = fault // the injected fault stands as the honest error
			}
		}
	}
	crit += a.runReads(served)

	a.settleWrites(false)
	crit += a.runDataWrites()
	a.settleWrites(true)
	crit += a.runDerivedWrites()
	a.finishRebuild()
	sc.recycle()
	return crit
}

// staleParity is wantComps' verdict on a derived chunk that no longer
// matches its row.
const staleParity = -2

// wantComps registers the reads that XOR back to chunk (slot, lpa): the
// row's derived chunk first, then every peer holding written data. It
// stops at the first component it cannot use and names it in bad —
// staleParity, or the slot that is unreadable (or is avoid, which just
// refused the read), -1 when all is well — leaving the reads wanted so
// far in the phase.
func (a *Array) wantComps(slot, lpa, avoid int, comps []*internalRead) (_ []*internalRead, bad int) {
	pd := a.lay.derived(lpa)
	if pd >= 0 && pd != slot {
		if !a.parityOK[lpa] {
			return comps, staleParity
		}
		if pd == avoid || !a.slots[pd].readable(lpa) {
			return comps, pd
		}
		comps = append(comps, a.want(pd, lpa))
	}
	lo, hi := a.lay.peers(slot)
	for j := lo; j < hi; j++ {
		if j == slot || j == pd || !a.written[a.lay.pageOf(j, lpa)] {
			continue
		}
		if j == avoid || !a.slots[j].readable(lpa) {
			return comps, j
		}
		comps = append(comps, a.want(j, lpa))
	}
	return comps, -1
}

// stageRead plans one host read into the read phase being built: from
// the first readable home other than avoid (a slot that just refused it),
// else through reconstruction.
func (a *Array) stageRead(res *Result, page int, dst []byte, avoid int) error {
	sc := &a.scr
	lpa, homes, n := a.lay.homes(page)
	drv := homes[0]
	var hr *hostRead
	sc.reads, hr = grow(sc.reads)
	*hr = hostRead{res: res, page: page, slot: -1, drv: drv, dst: dst, comps: hr.comps[:0]}
	for _, t := range homes[:n] {
		if t == avoid || !a.slots[t].readable(lpa) {
			continue
		}
		if t != drv {
			a.slots[drv].degradedReads++
		}
		hr.slot = t
		sc.hostOps = append(sc.hostOps, driveOp{lpa: lpa, slot: t, dst: dst, res: res})
		return nil
	}
	var err error
	switch {
	case !a.lay.redundant():
		err = fmt.Errorf("array: read page %d: %w", page, ErrDriveDead)
	case !a.written[page]:
		err = fmt.Errorf("array: page %d never written (drive %d %s)", page, drv, a.slots[drv].state)
	default:
		var bad int
		if hr.comps, bad = a.wantComps(drv, lpa, avoid, hr.comps); bad == staleParity {
			err = fmt.Errorf("array: page %d unreconstructable: parity stale: %w", page, ErrDriveDead)
		} else if bad >= 0 {
			err = fmt.Errorf("array: page %d unreconstructable: drive %d down too: %w", page, bad, ErrDriveDead)
		}
	}
	if err != nil {
		sc.reads = sc.reads[:len(sc.reads)-1]
		return err
	}
	a.slots[drv].degradedReads++
	return nil
}

// runReads dispatches a read phase — the read set in want order, then
// the host ops in schedule order — and closes it for reads[from:]: a
// read served by a home other than the primary is booked as degraded,
// a reconstruction XORs its components into the host's buffer.
func (a *Array) runReads(from int) time.Duration {
	sc := &a.scr
	for _, op := range sc.rs.order {
		sc.batches[op.slot] = append(sc.batches[op.slot], op)
	}
	for _, op := range sc.hostOps {
		sc.batches[op.slot] = append(sc.batches[op.slot], op)
	}
	crit := a.runPhase(sc.batches)
	a.resetReadSet()
	sc.hostOps = sc.hostOps[:0]

	for i := from; i < len(sc.reads); i++ {
		hr := &sc.reads[i]
		if hr.slot >= 0 {
			if hr.slot != hr.drv && hr.res.Err == nil {
				// The refused attempt it may follow cost no drive time.
				a.recordDegraded(hr.res, hr.page, hr.drv, hr.res.Latency)
			}
			continue
		}
		if hr.dst == nil {
			hr.dst = make([]byte, a.pageBytes)
		}
		hr.res.Drive = hr.drv
		lat, err := xorPages(hr.dst[:a.pageBytes], hr.comps)
		if err != nil {
			hr.res.Err = fmt.Errorf("array: degraded read page %d: %w", hr.page, err)
			continue
		}
		hr.res.Data = hr.dst[:a.pageBytes]
		hr.res.Latency += lat
		a.recordDegraded(hr.res, hr.page, hr.drv, lat)
	}
	return crit
}

// recordDegraded books one degraded read of a page whose primary slot is
// drv: class histogram, reconstructed bytes, the host-side service time,
// and the trace span. lat is the slowest component read; the span covers
// that window only and starts at the round's clock (which advances when
// the round ends), so it nests inside the round's span even when the
// read is the round's entire critical path.
func (a *Array) recordDegraded(res *Result, page, drv int, lat time.Duration) {
	res.Latency += hitLatency
	a.slots[drv].reconBytes += int64(a.pageBytes)
	a.latDegraded.Record(lat + hitLatency)
	a.trace.Span2(hostTidRecov, "reconstruct", a.clock, lat,
		"page", int64(page), "slot", int64(drv))
}

// planWrite stages one write on every writable home of its page. With no
// derived chunk it has no inputs and joins phase 1 in op order; otherwise
// it joins the row's update plan and waits for phase 3.
func (a *Array) planWrite(act *action) {
	sc := &a.scr
	lpa, homes, n := a.lay.homes(act.page)
	w := pwrite{act: act, lpa: lpa, row: -1}
	for _, t := range homes[:n] {
		if !a.slots[t].writable() {
			continue
		}
		if w.n > 0 || act.res == nil {
			w.outs[w.n] = sc.newSink(0)
		}
		w.slots[w.n] = t
		w.n++
	}
	pd := a.lay.derived(lpa)
	if pd < 0 {
		if w.n == 0 {
			a.loseUnplaced(a.slots[homes[0]], act)
			return
		}
		for i := range w.slots[:w.n] {
			sc.hostOps = append(sc.hostOps, w.op(i))
		}
		sc.pw = append(sc.pw, w)
		return
	}

	// Read-modify-write against the row's derived chunk. Such layouts
	// keep one home per page.
	st := a.slots[homes[0]]
	pr := a.rowPlan(lpa, pd)
	if w.n > 0 {
		if a.written[act.page] {
			if st.readable(lpa) {
				w.oldData = a.want(st.id, lpa)
			} else {
				a.makeAbsolute(pr) // old value only reachable through the row
			}
		}
	} else {
		if pr.skip {
			a.loseUnplaced(st, act)
			return
		}
		w.degraded = true
		w.slots[0] = st.id
		a.makeAbsolute(pr)
		if act.res != nil {
			act.res.Drive = st.id
		}
	}
	switch {
	case pr.skip || pr.absolute:
	case !a.parityOK[lpa]:
		if a.anyRowWritten(lpa) {
			a.makeAbsolute(pr) // stale parity: re-establish from the row
		}
	case !a.slots[pd].readable(lpa):
		a.makeAbsolute(pr)
	case pr.oldParity == nil:
		pr.oldParity = a.want(pd, lpa)
	}
	w.row = int(sc.rowIdx[lpa]) - 1
	pr.writes = append(pr.writes, len(sc.pw))
	sc.pw = append(sc.pw, w)
	sc.fwd[act.page] = int32(len(sc.pw))
}

// rowPlan returns the round's update plan for the derived chunk at
// (pd, l), creating it on first touch.
func (a *Array) rowPlan(l, pd int) *prow {
	sc := &a.scr
	if i := sc.rowIdx[l]; i != 0 {
		return &sc.rows[i-1]
	}
	var pr *prow
	sc.rows, pr = grow(sc.rows)
	*pr = prow{l: l, pd: pd, skip: !a.slots[pd].writable(), peers: pr.peers[:0], writes: pr.writes[:0]}
	sc.rowIdx[l] = int32(len(sc.rows))
	return pr
}

// makeAbsolute switches a row plan to a recompute from the row's current
// values, wanting every written chunk it can read.
func (a *Array) makeAbsolute(pr *prow) {
	planned := pr.absolute
	pr.absolute = true
	pr.oldParity = nil
	if planned || pr.skip {
		return
	}
	for j := range a.slots {
		pj := a.lay.pageOf(j, pr.l)
		if pj < 0 {
			continue
		}
		p := peerRead{page: pj, had: a.written[pj]}
		if p.had && a.slots[j].readable(pr.l) {
			p.ir = a.want(j, pr.l)
		}
		pr.peers = append(pr.peers, p)
	}
}

// anyRowWritten reports whether any data page of the row holding the
// derived chunk at lpa l has ever landed on a drive.
func (a *Array) anyRowWritten(l int) bool {
	for j := range a.slots {
		if pj := a.lay.pageOf(j, l); pj >= 0 && a.written[pj] {
			return true
		}
	}
	return false
}

// settleWrites folds the outcomes of the writes staged in phase 1
// (deferred false) or phase 3 (true) into the slots: fresh marks and
// written[] where a home took the data, a write-back error per failed
// internal target, loss accounting for a write no home took.
//
// A failed phase-1 home is fenced as stale until a write lands on it. A
// phase-3 one is not: parity is updated only from writes that landed, so
// the row stays consistent with the member's old content. A phase-1
// write that landed also defers the rebuild items it raced — the rebuild
// read its sources in the same phase, so a write onto the rebuilding slot
// (the spare already holds the newest content) or onto one of its
// sources (the image read is stale) must win. Phase-3 writes sit behind
// the rebuild copies in their batches and win by order.
func (a *Array) settleWrites(deferred bool) {
	sc := &a.scr
	for wi := range sc.pw {
		w := &sc.pw[wi]
		if w.degraded || (w.row >= 0) != deferred {
			continue
		}
		var firstErr error
		for i, t := range w.slots[:w.n] {
			s, err := a.slots[t], w.err(i)
			if err == nil {
				w.ok = true
				s.markFresh(w.lpa)
				for j := 0; !deferred && j < len(sc.items); j++ {
					it := &sc.items[j]
					if lo, hi := a.lay.peers(it.s.id); it.lpa == w.lpa && lo <= t && t < hi {
						it.skip = true
					}
				}
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
			if !deferred {
				s.markStale(w.lpa)
			}
			if w.outs[i] != nil {
				s.wbErrors++
			}
		}
		if !w.ok {
			a.loseWrite(a.slots[w.slots[0]], w.act, firstErr)
			continue
		}
		a.written[w.act.page] = true
		if deferred {
			sc.rows[w.row].landed = true
		}
	}
}

// runDataWrites is phase 3: rebuild copies first, then the host writes
// that waited for their row's reads, so same-round host writes win.
func (a *Array) runDataWrites() time.Duration {
	sc := &a.scr
	for i := range sc.items {
		it := &sc.items[i]
		if it.skip || it.lost {
			continue
		}
		val := sc.newSink(a.pageBytes).buf
		if _, err := xorPages(val, it.comps); err != nil {
			it.skip = true // a source read failed: retry a later round
			continue
		}
		it.write = sc.newSink(0)
		sc.batches[it.s.id] = append(sc.batches[it.s.id],
			driveOp{write: true, lpa: it.lpa, slot: it.s.id, data: val, out: it.write})
	}
	for wi := range sc.pw {
		if w := &sc.pw[wi]; w.row >= 0 && !w.degraded {
			sc.batches[w.slots[0]] = append(sc.batches[w.slots[0]], w.op(0))
		}
	}
	return a.runPhase(sc.batches)
}

// runDerivedWrites is phase 4: compute each touched derived chunk from
// the writes that landed and write it; a chunk that cannot be computed
// or written goes stale and takes its degraded writes with it.
func (a *Array) runDerivedWrites() time.Duration {
	sc := &a.scr
	for i := range sc.rows {
		pr := &sc.rows[i]
		if pr.skip {
			if a.parityOK[pr.l] && pr.landed {
				a.parityOK[pr.l] = false
				a.parityStale++
			}
			continue
		}
		val, ok := a.parityValue(pr)
		if !ok {
			a.failRow(pr)
			continue
		}
		if val == nil {
			continue // nothing landed on this row
		}
		pr.stage = sc.newSink(0)
		sc.batches[pr.pd] = append(sc.batches[pr.pd],
			driveOp{write: true, lpa: pr.l, slot: pr.pd, data: val, out: pr.stage})
	}
	crit := a.runPhase(sc.batches)
	for i := range sc.rows {
		pr := &sc.rows[i]
		if pr.stage == nil {
			continue
		}
		if pr.stage.err != nil {
			a.failRow(pr)
			continue
		}
		a.parityOK[pr.l] = true
		a.slots[pr.pd].markFresh(pr.l)
		for _, wi := range pr.writes {
			if w := &sc.pw[wi]; w.degraded {
				a.written[w.act.page] = true
				if w.act.res != nil {
					w.act.res.Latency += pr.stage.lat
				}
			}
		}
	}
	return crit
}

// failRow marks a derived chunk stale and surfaces the loss of every
// degraded write that relied on it.
func (a *Array) failRow(pr *prow) {
	a.parityOK[pr.l] = false
	a.parityStale++
	for _, wi := range pr.writes {
		if w := &a.scr.pw[wi]; w.degraded {
			a.loseUnplaced(a.slots[w.slots[0]], w.act)
		}
	}
}

// lastData returns the data of the last write to page in pr.writes[:upTo]
// that landed (or, with degradedToo, rides on the derived chunk), or nil.
func (a *Array) lastData(pr *prow, upTo, page int, degradedToo bool) []byte {
	for i := upTo - 1; i >= 0; i-- {
		w := &a.scr.pw[pr.writes[i]]
		if w.act.page == page && (w.ok || degradedToo && w.degraded) {
			return w.act.data
		}
	}
	return nil
}

// parityValue computes the new derived chunk for a touched row. Returns
// (nil, true) when nothing landed, (nil, false) when the update is
// uncomputable (stale parity results).
func (a *Array) parityValue(pr *prow) ([]byte, bool) {
	sc := &a.scr
	if pr.oldParity != nil && pr.oldParity.err != nil {
		return nil, false
	}
	val := sc.newSink(a.pageBytes).buf
	clear(val)
	if pr.absolute {
		// Every data chunk of the row at its final value: this round's
		// last write to it, else the value read in phase 1, else (never
		// written) zeros.
		for _, p := range pr.peers {
			v := a.lastData(pr, len(pr.writes), p.page, true)
			if v == nil && p.had {
				if p.ir == nil || p.ir.err != nil {
					return nil, false
				}
				v = p.ir.data
			}
			if v != nil {
				xorInto(val, v)
			}
		}
		return val, true
	}
	// Delta chain over the writes that landed, in op order.
	if pr.oldParity != nil {
		copy(val, pr.oldParity.data)
	}
	for i, wi := range pr.writes {
		w := &sc.pw[wi]
		if !w.ok {
			continue
		}
		old := a.lastData(pr, i, w.act.page, false)
		if old == nil && w.oldData != nil {
			if w.oldData.err != nil {
				return nil, false
			}
			old = w.oldData.data
		}
		if old != nil {
			xorInto(val, old)
		}
		xorInto(val, w.act.data)
	}
	if !pr.landed {
		return nil, true
	}
	return val, true
}
