package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"xlnand/internal/controller"
	"xlnand/internal/dispatch"
	"xlnand/internal/ecc"
	"xlnand/internal/ftl"
	"xlnand/internal/obs"
)

// stage is a point in a drive's life: wear set before the pages are
// written, then a retention bake.
type stage struct {
	name   string
	cycles float64
	bakeH  float64
	writes bool // the write rungs run at this stage
}

var stages = []stage{
	{"fresh", 0, 0, true},
	{"mid", 5e4, 300, false},
	{"eol", eolCycles, eolBakeH, true},
}

var families = []struct {
	name string
	fam  ecc.Family
}{{"bch", ecc.FamilyBCH}, {"ldpc", ecc.FamilyLDPC}}

// physPage is where the FTL put one logical page, found from outside by
// reading every physical page through the controller and taking the
// page number from the decoded content, with the step the controller
// applied and the level it decoded at.
type physPage struct {
	block, page      int
	lpa, step, level int
}

// cell is one (family, stage) drive of the ladder: one die of four
// blocks, three under an FTL partition and the last one raw for the
// write rungs below the FTL.
type cell struct {
	*drive
	r     *run
	fam   string
	st    stage
	pages []physPage
	perNs int64 // host ns of one controller read, from the scan
}

func ladderName(rung, fam, st string) string { return rung + "." + fam + "." + st }

func newCell(r *run, fam string, family ecc.Family, st stage) (*cell, error) {
	d, err := newDrive(1, rawBlock+1, rawBlock, r.seed+uint64(len(fam))*31+uint64(st.cycles), family)
	if err != nil {
		return nil, err
	}
	c := &cell{drive: d, r: r, fam: fam, st: st}
	if err := d.setCycles(st.cycles); err != nil {
		return nil, err
	}
	geo := d.disp.Geometry()
	scratch, dst := make([]byte, geo.PageDataBytes), make([]byte, geo.PageDataBytes)
	for lpa := 0; lpa < r.prof.LadderPages; lpa++ {
		if _, err := d.f.Write(volPartition, lpa, r.pattern(scratch, lpa, 0)); err != nil {
			return nil, err
		}
	}
	if err := d.disp.AdvanceTime(st.bakeH); err != nil {
		return nil, err
	}
	// Scan until the drive is settled: the first pass builds the decoder
	// tables, and at end of life the calibration cache has to learn its
	// read-reference step from a read that fails at the nominal one. Until
	// it has, the rungs would be timed in a regime that ends at a random
	// read. The last pass records what a settled read of each page applies.
	// (LDPC still decodes at the nominal step at this stage and has
	// nothing to learn.)
	learns := fam == "bch" && st.name == "eol"
	ctrl := d.disp.Controller(0)
	for pass := 0; pass < settlePasses; pass++ {
		c.pages = c.pages[:0]
		settled := pass > 0
		t0 := time.Now()
		for blk := 0; blk < rawBlock; blk++ {
			for pg := 0; pg < geo.PagesPerBlock; pg++ {
				res, err := ctrl.ReadPageRetryInto(blk, pg, ctrl.ReadRetry(), dst)
				if err != nil {
					continue // never written
				}
				lpa := int(binary.LittleEndian.Uint64(res.Data))
				if lpa >= r.prof.LadderPages || !bytes.Equal(res.Data, r.pattern(scratch, lpa, 0)) {
					return nil, fmt.Errorf("ladder %s.%s: page %d.%d decoded to the wrong content", fam, st.name, blk, pg)
				}
				if res.Retries > 0 || (learns && res.AppliedOffset == 0) {
					settled = false
				}
				c.pages = append(c.pages, physPage{blk, pg, lpa, res.AppliedOffset, res.T})
			}
		}
		c.perNs = int64(time.Since(t0)) / int64(len(c.pages)+1)
		if settled {
			break
		}
	}
	if len(c.pages) != r.prof.LadderPages {
		return nil, fmt.Errorf("ladder %s.%s: found %d of %d pages", fam, st.name, len(c.pages), r.prof.LadderPages)
	}
	// The LDPC codec calibrates its decode-latency table (seconds of
	// min-sum runs) the first time a decode that corrected something is
	// priced; on a fresh cell that would be some read in the middle of a
	// rung.
	if ml, ok := d.disp.Codec().(ecc.MeasuredLatency); ok {
		ml.MeasuredDecodeLatency(c.pages[0].level, 1)
	}
	return c, nil
}

// settlePasses caps the settling scan. A nominal-step read at end of
// life fails about once in 40, so 40 passes of at least 8 pages leave
// the cache unsettled about once in 3000 runs; the reconciliation guard
// then says so.
const settlePasses = 40

// iters sizes a rung from the cost of one call.
func (c *cell) iters(perNs int64) int {
	n := int(int64(c.r.prof.RungBudget) / max(perNs, 200))
	return max(n, len(c.pages))
}

// loop times n calls of fn as one span. Calls of a microsecond are timed
// as a loop; calls of a millisecond could be timed singly, but one shape
// for all keeps the rungs comparable.
func (c *cell) loop(rung string, n int, fn func(p physPage) error) error {
	return c.timed(ladderName(rung, c.fam, c.st.name), n, fn)
}

// timed is loop under a span name that is not a ladder rung.
func (c *cell) timed(name string, n int, fn func(p physPage) error) error {
	c.r.rec.begin(c.r.rec.name(name), int64(n))
	defer c.r.rec.end(n)
	for i := 0; i < n; i++ {
		if err := fn(c.pages[i%len(c.pages)]); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// ladderRounds is how many slices each rung's calls are cut into. The
// rungs of a cell take turns, slice by slice, so that a slow minute of
// the host falls on every rung alike and the differences between rungs
// (the self times) keep their meaning.
const ladderRounds = 6

// readRungs walks the read ladder over the same pre-aged pages at every
// rung. The sense and decode rungs use the step and level the controller
// applied to that page, so Decode sees the error count the controller's
// own decode saw. The last turn of every round repeats the ftl rung
// outside the recorder: the reconciliation reference.
func (c *cell) readRungs() error {
	geo := c.disp.Geometry()
	cal := c.disp.Env().Cal
	buf := make([]byte, cal.PageDataBytes+cal.PageSpareBytes)
	dst := make([]byte, geo.PageDataBytes)
	codec := c.disp.Codec()
	ctrl := c.disp.Controller(0)
	dev := ctrl.Device()
	q := c.disp.NewQueue()
	ctx := context.Background()
	n := max(c.iters(c.perNs)/ladderRounds, 1)
	nSense := c.iters(2000) / ladderRounds
	decode := c.r.rec.name(c.fam + ".decode_ns." + c.st.name)
	ftlRead := func(p physPage) error {
		_, _, err := c.f.ReadInto(volPartition, p.lpa, dst)
		return err
	}

	var flips, cleanHits uint64
	var refNs time.Duration
	var res controller.ReadResult
	for round := 0; round < ladderRounds; round++ {
		err := c.loop("nand.sense_ns", nSense, func(p physPage) error {
			_, _, err := dev.ReadInto(p.block, p.page, p.step, buf)
			_, f := dev.LastSense()
			flips += uint64(f)
			return err
		})
		if err != nil {
			return err
		}
		// The decode rung senses untimed and times only Decode, one span
		// a call. A sense that the decoder cannot repair is what the
		// retry ladder exists for; it is skipped here, as the rung is the
		// cost of a decode that succeeds.
		for i := 0; i < n; i++ {
			p := c.pages[i%len(c.pages)]
			nd, ns, err := dev.ReadInto(p.block, p.page, p.step, buf)
			if err != nil {
				return err
			}
			c.r.rec.begin(decode, int64(i))
			_, err = codec.Decode(p.level, buf[:nd+ns])
			if err != nil {
				c.r.rec.end(0)
				continue
			}
			c.r.rec.end(1)
		}
		clean0 := ctrl.CleanHits()
		err = c.loop("controller.read_ns", n, func(p physPage) error {
			_, err := ctrl.ReadPageRetryInto(p.block, p.page, ctrl.ReadRetry(), dst)
			return err
		})
		if err != nil {
			return err
		}
		cleanHits += ctrl.CleanHits() - clean0
		err = c.loop("dispatch.read_ns", n, func(p physPage) error {
			_, err := q.DoRead(ctx, dispatch.Request{Op: dispatch.OpRead, Die: 0, Block: p.block, Page: p.page}, dst, &res)
			return err
		})
		if err != nil {
			return err
		}
		if err := c.loop("ftl.read_ns", n, ftlRead); err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := ftlRead(c.pages[i%len(c.pages)]); err != nil {
				return err
			}
		}
		refNs += time.Since(t0)
	}

	x := c.r.b.Layer
	hits := float64(cleanHits) / float64(n*ladderRounds)
	x["ladder.clean_hits."+c.fam+"."+c.st.name] = hits
	if c.fam == "bch" {
		x["nand.flips_per_sense."+c.st.name] = float64(flips) / float64(nSense*ladderRounds)
	}
	switch {
	case c.st.name == "fresh":
		c.r.guard(hits > 0.9, "ladder %s.fresh: clean-hit share %.3f is not above 0.90", c.fam, hits)
	case c.st.name == "eol" && c.fam == "bch":
		x["bench.ladder_e2e_ns"] = float64(refNs) / float64(n*ladderRounds)
		c.r.guard(hits < 0.05, "ladder bch.eol: clean-hit share %.3f is not below 0.05", hits)
		for _, p := range c.pages {
			c.r.guard(p.level == codec.MaxLevel(), "ladder bch.eol: page stored at level %d, codec max is %d", p.level, codec.MaxLevel())
		}
	}
	return nil
}

// rawBlock is the block the FTL does not own.
const rawBlock = 3

// writeRungs walks the write ladder on the raw block (erased between
// passes, each erase timed as nand.erase_ns) and then through the FTL,
// which pays garbage collection as a host write does.
func (c *cell) writeRungs() error {
	geo := c.disp.Geometry()
	ctrl := c.disp.Controller(0)
	dev := ctrl.Device()
	codec := c.disp.Codec()
	q := c.disp.NewQueue()
	ctx := context.Background()
	data := c.r.pattern(make([]byte, geo.PageDataBytes), 1<<30, 0)
	erase := c.r.rec.name("nand.erase_ns")
	// One controller write tells the level and algorithm this stage
	// writes at, and its cost sizes the rungs.
	t0 := time.Now()
	wr, err := ctrl.WritePage(rawBlock, 0, data)
	if err != nil {
		return err
	}
	perNs := int64(time.Since(t0))
	passes := max(1, c.iters(perNs)/geo.PagesPerBlock)
	parity := make([]byte, wr.ParityBy)

	c.r.rec.begin(c.r.rec.name(c.fam+".encode_ns."+c.st.name), 0)
	for i := 0; i < passes*geo.PagesPerBlock; i++ {
		if err := codec.EncodeInto(wr.T, parity, data); err != nil {
			return err
		}
	}
	c.r.rec.end(passes * geo.PagesPerBlock)

	var wres controller.WriteResult
	rungs := []struct {
		name string
		fn   func(pg int) error
	}{
		{"nand.program_ns", func(pg int) error {
			_, err := dev.Program(rawBlock, pg, data, parity, wr.Alg)
			return err
		}},
		{"controller.write_ns", func(pg int) error {
			_, err := ctrl.WritePage(rawBlock, pg, data)
			return err
		}},
		{"dispatch.write_ns", func(pg int) error {
			_, err := q.DoWrite(ctx, dispatch.Request{Op: dispatch.OpWrite, Die: 0, Block: rawBlock, Page: pg, Data: data}, &wres)
			return err
		}},
	}
	scratch := make([]byte, geo.PageDataBytes)
	ver := 0
	for p := 0; p < passes; p++ { // the rungs take turns, as the read rungs do
		for _, rg := range rungs {
			c.r.rec.begin(erase, int64(p))
			err := dev.Erase(rawBlock)
			c.r.rec.end(1)
			if err != nil {
				return err
			}
			pg := 0
			err = c.loop(rg.name, geo.PagesPerBlock, func(physPage) error {
				pg++
				return rg.fn(pg - 1)
			})
			if err != nil {
				return err
			}
		}
		err := c.loop("ftl.write_ns", geo.PagesPerBlock, func(p physPage) error {
			ver++
			_, err := c.f.Write(volPartition, p.lpa, c.r.pattern(scratch, p.lpa, ver))
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// extras are the single-layer side measurements that ride on a cell.
func (c *cell) extras() error {
	cal := c.disp.Env().Cal
	buf := make([]byte, cal.PageDataBytes+cal.PageSpareBytes)
	dst := make([]byte, cal.PageDataBytes)
	switch {
	case c.fam == "bch" && c.st.name == "fresh":
		// The worker-goroutine path the array's inline dispatch bypasses:
		// batches of 64 reads through Queue.Submit.
		q := c.disp.NewQueue()
		reqs := make([]dispatch.Request, 64)
		for i := range reqs {
			p := c.pages[i*len(c.pages)/len(reqs)]
			reqs[i] = dispatch.Request{Op: dispatch.OpRead, Die: 0, Block: p.block, Page: p.page}
		}
		batches := c.iters(2000) / len(reqs)
		c.r.rec.begin(c.r.rec.name("dispatch.batch_ns_per_req"), 0)
		for i := 0; i < batches; i++ {
			comps, err := q.Submit(context.Background(), reqs)
			if err != nil {
				return err
			}
			for _, cp := range comps {
				if cp.Err != nil {
					return cp.Err
				}
			}
		}
		c.r.rec.end(batches * len(reqs))
	case c.fam == "ldpc" && c.st.name == "eol":
		dev := c.disp.Controller(0).Device()
		llr := make([]int8, len(buf)*8)
		soft := func(p physPage) error {
			_, _, _, err := dev.ReadSoftN(p.block, p.page, p.step, dev.Stress().SoftSenses, buf, llr)
			return err
		}
		t0 := time.Now()
		if err := soft(c.pages[0]); err != nil {
			return err
		}
		return c.timed("nand.soft_sense_ns", c.iters(int64(time.Since(t0))), soft)
	case c.fam == "bch" && c.st.name == "eol":
		// Mark every block through the health check at a threshold any
		// aged read crosses, then time the scrub pass that relocates them.
		pol := ftl.ScrubPolicy{FractionOfT: 0.01}
		for _, p := range c.pages {
			_, res, err := c.f.ReadInto(volPartition, p.lpa, dst)
			if err != nil {
				return err
			}
			if _, err := c.f.CheckReadHealth(volPartition, p.lpa, res, pol); err != nil {
				return err
			}
		}
		c.r.rec.begin(c.r.rec.name("ftl.scrub_ns_per_page"), 0)
		rep, err := c.f.Scrub(volPartition)
		c.r.rec.end(rep.PagesMoved)
		if err != nil {
			return err
		}
		c.r.guard(rep.PagesMoved > 0, "ladder bch.eol: the scrub pass moved no page")
	}
	return nil
}

// ladder builds the six cells and walks every rung. It runs in the
// traced child after the workload's own block; its spans land in the
// same recorder.
func ladder(r *run) error {
	for _, fam := range families {
		for _, st := range stages {
			c, err := newCell(r, fam.name, fam.fam, st)
			if err != nil {
				return err
			}
			err = c.readRungs()
			if err == nil {
				err = c.extras()
			}
			if err == nil && st.writes {
				err = c.writeRungs()
			}
			c.disp.Close()
			if err != nil {
				return err
			}
		}
	}
	// obs.LatencyHist.Record is on every read's path in the array.
	var h obs.LatencyHist
	const records = 1 << 20
	r.rec.begin(r.rec.name("obs.hist_record_ns"), 0)
	for i := 0; i < records; i++ {
		h.Record(time.Duration(60_000 + i&0xffff))
	}
	r.rec.end(records)
	return nil
}
