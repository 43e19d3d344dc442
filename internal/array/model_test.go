package array

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"xlnand/internal/controller"
)

// refVolume is the reference model the array is checked against: a
// trivially correct sequential volume. Per page it keeps the last
// acknowledged write and the writes reported failed since (a failed
// write may or may not have reached a member, so the page is honestly
// indeterminate between them until the next acknowledged write), plus
// every version ever acknowledged (a lost cache write-back silently
// rolls a page back to one of those) and a count of observed losses.
type refVolume struct {
	acked    []int   // last acknowledged version per page; 0 = never written
	failed   [][]int // versions whose write result carried an error since acked
	history  [][]int // every acknowledged version, oldest first
	observed map[[2]int]bool
	errored  int64 // write results that carried an error
}

func newRefVolume(pages int) *refVolume {
	return &refVolume{
		acked:    make([]int, pages),
		failed:   make([][]int, pages),
		history:  make([][]int, pages),
		observed: map[[2]int]bool{},
	}
}

func (m *refVolume) write(page, version int, err error) {
	if err != nil {
		m.errored++
		m.failed[page] = append(m.failed[page], version)
		return
	}
	m.acked[page] = version
	m.failed[page] = m.failed[page][:0]
	m.history[page] = append(m.history[page], version)
}

// typedErr reports whether err is one of the honest, typed failures a
// read may surface whatever the model holds.
func typedErr(err error) bool {
	return errors.Is(err, ErrDriveDead) || errors.Is(err, ErrDriveFault) ||
		errors.Is(err, controller.ErrUncorrectable)
}

// modelPattern is pagePattern with room for many versions.
func modelPattern(a *Array, page, version int) []byte {
	data := make([]byte, a.PageBytes())
	for i := range data {
		data[i] = byte(page*131 + version*29 + i*7 + version>>8)
	}
	return data
}

// read checks one read result. It returns a description of the
// violation, or "" when the result is the model's bytes, a typed error,
// or one of the page's indeterminate versions. Anything else is a loss
// — an untyped error, or (behind a write-back cache only, whose losses
// are silent) an older acknowledged version — and must be covered by
// lossBudget, the losses the array has owned up to so far.
func (m *refVolume) read(a *Array, r Result, cached bool, lossBudget int64) string {
	p := r.Page
	if r.Err != nil {
		if typedErr(r.Err) || len(m.failed[p]) > 0 {
			return ""
		}
	} else {
		if bytes.Equal(r.Data, modelPattern(a, p, m.acked[p])) {
			return ""
		}
		for _, v := range m.failed[p] {
			if bytes.Equal(r.Data, modelPattern(a, p, v)) {
				return ""
			}
		}
		older := false
		for _, v := range m.history[p] {
			older = older || bytes.Equal(r.Data, modelPattern(a, p, v))
		}
		if !older {
			return fmt.Sprintf("page %d: data matches no version ever written (want v%d)", p, m.acked[p])
		}
		if !cached {
			return fmt.Sprintf("page %d: STALE data, want v%d", p, m.acked[p])
		}
	}
	m.observed[[2]int{p, m.acked[p]}] = true
	if int64(len(m.observed)) > lossBudget {
		if r.Err != nil {
			return fmt.Sprintf("page %d: untyped error with no reported loss to explain it: %v", p, r.Err)
		}
		return fmt.Sprintf("page %d: STALE data (want v%d) with no reported loss to explain it", p, m.acked[p])
	}
	return ""
}

// reportedLosses is what the array has owned up to that a host cannot
// pin to a page: pages a rebuild could not reconstruct, and lost cache
// write-backs.
func reportedLosses(a *Array) int64 {
	n := a.cache.stats.WritebackLost
	for _, rb := range a.rebuilds {
		n += rb.Lost
	}
	return n
}

// killSpare forces the death of the stack serving a rebuilding or
// restored slot. A FaultPlan cannot express it — the health machine is
// strictly forward, so a slot that died once is never judged again — and
// the test rewinds the state by hand to drive kill down its usual path.
func killSpare(a *Array, s *slot) {
	if s.d == nil {
		return
	}
	s.state = Degraded
	a.kill(s)
}

// checkParityRows reads every stripe row straight off the member FTLs
// (below fault injection) and requires each row whose parity the array
// claims valid to XOR to zero.
func checkParityRows(t *testing.T, a *Array, label string) {
	t.Helper()
	if a.parityOK == nil {
		return
	}
	acc := make([]byte, a.pageBytes)
rows:
	for l, ok := range a.parityOK {
		if !ok {
			continue
		}
		clear(acc)
		for _, s := range a.slots {
			if pg := a.lay.pageOf(s.id, l); pg >= 0 && !a.written[pg] {
				continue
			}
			if !s.readable(l) {
				continue rows // a member is down: the row cannot be audited
			}
			data, _, err := s.d.f.ReadInto(volPartition, l, nil)
			if err != nil {
				t.Fatalf("%s: row lpa %d slot %d: %v", label, l, s.id, err)
			}
			xorInto(acc, data)
		}
		for _, b := range acc {
			if b != 0 {
				t.Fatalf("%s: parity row at lpa %d marked valid does not XOR to zero", label, l)
			}
		}
	}
}

// modelPlan is one seeded scenario of TestArrayMatchesReferenceModel.
type modelPlan struct {
	cfg Config
	// forced deaths, by window: slot to kill (through kill or killSpare).
	kills map[int]int
}

// newModelPlan derives layout, cache, spares and fault schedule from the
// seed. Every third seed stacks a second death onto a rebuild in
// progress, every fourth kills the spare itself.
func newModelPlan(seed uint64) modelPlan {
	rnd := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(mod))
	}
	mode := digestModes[rnd(3)]
	drives := 4 + 2*rnd(2)
	cfg := testConfig(drives)
	cfg.Seed = seed
	cfg.Redundancy = mode
	cfg.Spares = rnd(3)
	cfg.RoundOps = 8
	cfg.StripePages = 1 + 3*rnd(2)
	if rnd(2) == 0 {
		cfg.Cache = CacheConfig{Pages: 8 + 8*rnd(2)}
	}
	cfg.Faults.Seed = seed ^ 0xfa17
	victim := rnd(drives)
	switch rnd(4) {
	case 0:
		cfg.Faults.Drives = []DriveFault{{Drive: victim, FailStopRound: int64(30 + rnd(40))}}
	case 1:
		cfg.Faults.Drives = []DriveFault{{Drive: victim, TransientErrRate: 0.1 + 0.1*float64(rnd(4)), LatencyFactor: 2}}
	case 2:
		cfg.Faults.Drives = []DriveFault{{Drive: victim, TransientErrRate: 0.5, UBERCeiling: 0.05, MinReads: 16}}
	case 3:
		cfg.RebuildRate = 200
		cfg.Faults.Drives = []DriveFault{
			{Drive: victim, FailStopRound: int64(30 + rnd(20))},
			{Drive: (victim + 1) % drives, TransientErrRate: 0.15},
		}
	}
	p := modelPlan{cfg: cfg, kills: map[int]int{}}
	if rnd(3) == 0 {
		// Second death: a neighbour of the victim, while the first
		// rebuild (if any) is still sweeping.
		p.cfg.Faults.Drives = append(p.cfg.Faults.Drives[:1:1],
			DriveFault{Drive: (victim + 2) % drives, FailStopRound: int64(60 + rnd(30))})
	}
	if rnd(4) == 0 {
		p.kills[4+rnd(4)] = victim
	}
	return p
}

// TestArrayMatchesReferenceModel runs the array in lock-step with the
// reference volume over seeded random op streams, layouts, cache
// configs and fault plans. Every read must return the model's bytes or
// an honest error, never stale data; after Flush every parity row the
// array vouches for must XOR to zero on the media; and the loss counters
// must equal what the model saw reported.
func TestArrayMatchesReferenceModel(t *testing.T) {
	const seeds, windows, opsPerWindow = 36, 10, 40
	for seed := uint64(1); seed <= seeds; seed++ {
		plan := newModelPlan(seed * 0x9e3779b97f4a7c15)
		cfg := plan.cfg
		label := fmt.Sprintf("seed %d (%s, %d drives, %d spares, stripe %d, cache %d, faults %+v, kills %v)",
			seed, cfg.Redundancy, cfg.Drives, cfg.Spares, cfg.StripePages, cfg.Cache.Pages, cfg.Faults.Drives, plan.kills)
		a, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		span := a.VolumePages() / 3
		m := newRefVolume(a.VolumePages())
		versions := make([]int, a.VolumePages())
		state := seed
		rnd := func(mod int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(mod))
		}
		bufs := make([][]byte, opsPerWindow)
		for i := range bufs {
			bufs[i] = make([]byte, a.PageBytes())
		}
		// Every write goes through one caller buffer, scribbled over
		// right after Submit: the array must own its copy, however its
		// page stores are recycled.
		wbuf := make([]byte, a.PageBytes())
		var pending []int // version carried by each submitted op; 0 for reads
		settle := func() {
			res, err := a.Drain()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(res) != len(pending) {
				t.Fatalf("%s: %d results for %d ops", label, len(res), len(pending))
			}
			for i, r := range res {
				if r.Write {
					m.write(r.Page, pending[i], r.Err)
				} else if msg := m.read(a, r, cfg.Cache.Pages > 0, reportedLosses(a)); msg != "" {
					t.Fatalf("%s: op %d: %s", label, i, msg)
				}
			}
			pending = pending[:0]
		}
		for win := 0; win < windows; win++ {
			if slotID, ok := plan.kills[win]; ok {
				killSpare(a, a.slots[slotID])
			}
			for i := 0; i < opsPerWindow; i++ {
				page := rnd(span)
				if rnd(2) == 0 {
					// A hot set on the lowest lpas, where a rebuild cursor
					// starts: same-round overwrites of pages being copied.
					page = rnd(24)
				}
				if versions[page] == 0 || rnd(10) < 4 {
					versions[page]++
					pending = append(pending, versions[page])
					copy(wbuf, modelPattern(a, page, versions[page]))
					err = a.Submit(Op{Tenant: "default", Write: true, Page: page, Data: wbuf})
					clear(wbuf)
				} else {
					pending = append(pending, 0)
					op := Op{Tenant: "default", Page: page}
					if i%2 == 0 {
						op.Buf = bufs[i]
					}
					err = a.Submit(op)
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			settle()
			if win%3 == 2 {
				if err := a.Flush(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkParityRows(t, a, label)
			}
		}
		if err := a.Flush(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkParityRows(t, a, label)
		// Read everything back twice: the second pass is past the cache.
		for pass := 0; pass < 2; pass++ {
			for page := 0; page < span; page++ {
				if versions[page] == 0 {
					continue
				}
				pending = append(pending, 0)
				if err := a.Submit(Op{Tenant: "default", Page: page}); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(pending) == opsPerWindow {
					settle()
				}
			}
			settle()
		}
		rep := a.Report()
		var rebuildLost int64
		for _, rb := range rep.Rebuilds {
			rebuildLost += rb.Lost
		}
		t.Logf("%s: degraded reads %d, rebuilds %d (lost %d pages), lost writes %d, write-backs lost %d, stale parity %d, errored writes %d, observed losses %d",
			label, rep.Totals.DegradedReads, len(rep.Rebuilds), rebuildLost, rep.Totals.LostWrites,
			rep.Cache.WritebackLost, rep.Totals.ParityStaleEvents, m.errored, len(m.observed))
		switch {
		case cfg.Cache.Pages > 0:
			// Every host write is acknowledged into the buffer: all loss
			// is write-back loss.
			if m.errored != 0 || rep.Totals.LostWrites != rep.Cache.WritebackLost {
				t.Fatalf("%s: cached run: %d errored writes, lost %d, write-backs lost %d",
					label, m.errored, rep.Totals.LostWrites, rep.Cache.WritebackLost)
			}
		case cfg.Redundancy == RedundancyMirror:
			// A mirror write reports its first member's error even when
			// the partner took the data, so reported errors bound losses.
			if rep.Totals.LostWrites > m.errored {
				t.Fatalf("%s: %d lost writes, model saw only %d errors", label, rep.Totals.LostWrites, m.errored)
			}
		case rep.Totals.LostWrites != m.errored:
			t.Fatalf("%s: %d lost writes, model saw %d errored writes", label, rep.Totals.LostWrites, m.errored)
		}
		a.Close()
	}
}
