package array

// fill records one cache-miss read whose data back-fills the cache
// after the round's barrier.
type fill struct{ slot, page int }

// roundScratch holds every piece of per-round planning state, reused so
// a steady-state round allocates nothing of its own. The first group is
// the scheduler's; the rest is the pipeline's, emptied by recycle. Sinks
// (and the XOR pages they lend) are pooled by pointer because plans hold
// them across phases; reads, rows and items are pooled in place and keep
// their inner slices' capacity.
type roundScratch struct {
	results []Result
	acts    []action
	fills   []fill
	flushed []writeback // the round's watermark flush

	batches [][]driveOp // per-slot staging of the phase being built; runPhase empties it
	rs      readSet     // the phase's deduplicated internal reads
	hostOps []driveOp   // host ops of the read phase, schedule order
	reads   []hostRead
	pw      []pwrite
	rows    []prow
	items   []rbItem
	fwd     []int32 // volume page -> 1-based pw index of its last phase-3 write
	rowIdx  []int32 // derived-chunk lpa -> 1-based rows index

	sinks  []*internalRead
	nSinks int
}

// grow extends s by one element, reusing the backing array (and whatever
// the recycled element still holds) when there is room.
func grow[T any](s []T) ([]T, *T) {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
	} else {
		var zero T
		s = append(s, zero)
	}
	return s, &s[len(s)-1]
}

// recycle empties the pipeline's scratch at the end of a round, while
// its actions are still live: the keyed indexes are wiped entry by entry
// from the lists that filled them. (Each read phase already emptied the
// read set and its host ops.)
func (sc *roundScratch) recycle() {
	for i := range sc.pw {
		sc.fwd[sc.pw[i].act.page] = 0
	}
	for i := range sc.rows {
		sc.rowIdx[sc.rows[i].l] = 0
	}
	sc.reads, sc.pw, sc.rows, sc.items = sc.reads[:0], sc.pw[:0], sc.rows[:0], sc.items[:0]
	sc.nSinks = 0
}

// newSink hands out a zeroed pooled sink. Its page buffer survives
// recycling and is made on first need: page > 0 asks for one of that
// size (read sinks, and the XOR pages borrowed as sink.buf).
func (sc *roundScratch) newSink(page int) *internalRead {
	if sc.nSinks == len(sc.sinks) {
		sc.sinks = append(sc.sinks, &internalRead{})
	}
	ir := sc.sinks[sc.nSinks]
	sc.nSinks++
	*ir = internalRead{buf: ir.buf}
	if page > 0 && ir.buf == nil {
		ir.buf = make([]byte, page)
	}
	return ir
}

// readSet collects the internal reads one phase needs, deduplicated, in
// deterministic first-want order. idx maps slot*perDriveLPAs+lpa to a
// 1-based position in order and is wiped entry by entry on reset.
type readSet struct {
	idx   []int32
	order []driveOp
}

// want registers (slot, lpa) for the phase and returns its shared sink.
func (a *Array) want(slot, lpa int) *internalRead {
	rs := &a.scr.rs
	k := slot*a.perDriveLPAs + lpa
	if i := rs.idx[k]; i != 0 {
		return rs.order[i-1].out
	}
	ir := a.scr.newSink(a.pageBytes)
	rs.order = append(rs.order, driveOp{lpa: lpa, slot: slot, dst: ir.buf, out: ir})
	rs.idx[k] = int32(len(rs.order))
	return ir
}

func (a *Array) resetReadSet() {
	rs := &a.scr.rs
	for _, op := range rs.order {
		rs.idx[op.slot*a.perDriveLPAs+op.lpa] = 0
	}
	rs.order = rs.order[:0]
}
