package xlnand_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"xlnand"
	"xlnand/internal/lifetime"
)

// The calibrated lifetime RBER model reproduces the paper's Fig. 5
// anchors: ISPP-SV reaches 1e-3 at a million cycles while ISPP-DV stays
// an order of magnitude lower.
func ExampleRBER() {
	fmt.Printf("SV fresh: %.1e\n", xlnand.RBER(xlnand.ISPPSV, 0))
	fmt.Printf("SV EOL:   %.1e\n", xlnand.RBER(xlnand.ISPPSV, 1e6))
	fmt.Printf("DV EOL:   %.1e\n", xlnand.RBER(xlnand.ISPPDV, 1e6))
	// Output:
	// SV fresh: 1.0e-06
	// SV EOL:   1.0e-03
	// DV EOL:   8.4e-05
}

// Sizing the adaptive BCH code per the paper's §6.2: t = 3 suffices at
// the fresh RBER, and the worst case fixes the architecture at t = 65.
func ExampleRequiredT() {
	tMin, err := xlnand.RequiredT(16, 32768, 1e-6, 1e-11, 65)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fresh:", tMin)
	tMax, err := xlnand.RequiredT(16, 32768, 1e-3, 1e-11, 80)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("EOL:", tMax)
	// Output:
	// fresh: 3
	// EOL: 66
}

// The adaptive codec corrects real bit errors in real buffers.
func ExampleNewPageCodec() {
	codec, err := xlnand.NewPageCodec()
	if err != nil {
		log.Fatal(err)
	}
	page := make([]byte, 4096)
	copy(page, "cross-layer flash management")
	cw, err := codec.EncodeCodeword(30, page)
	if err != nil {
		log.Fatal(err)
	}
	cw[0] ^= 0xff // clobber a full byte (8 bit errors)
	n, err := codec.Decode(30, cw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corrected %d bit errors: %q\n", n, cw[:12])
	// Output:
	// corrected 8 bit errors: "cross-layer "
}

// Evaluating the paper's service levels at end of life shows the
// cross-layer trade-off: max-read relaxes the codec from t=65 to t=14.
func ExampleSubsystem_EvaluateMode() {
	sys, err := xlnand.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	nom, err := sys.EvaluateMode(xlnand.ModeNominal, 1e6)
	if err != nil {
		log.Fatal(err)
	}
	fast, err := sys.EvaluateMode(xlnand.ModeMaxRead, 1e6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nominal:  t=%d\n", nom.T)
	fmt.Printf("max-read: t=%d\n", fast.T)
	fmt.Printf("read gain: +%.0f%%\n", 100*(fast.ReadMBps/nom.ReadMBps-1))
	// Output:
	// nominal:  t=65
	// max-read: t=14
	// read gain: +37%
}

// Quickstart: open a simulated MLC NAND sub-system, write a page, age the
// device, read the page back and watch the adaptive BCH codec repair the
// raw bit errors — then submit a batch through the queue across two
// dies.
func Example_quickstart() {
	// Open a sub-system with the paper's defaults: 4 KB pages, adaptive
	// BCH over GF(2^16) with t in [3, 65], UBER target 1e-11 — here with
	// two dies behind the controller. (Add
	// xlnand.WithCodec(xlnand.CodecLDPC) to swap the ECC family for the
	// soft-decision LDPC codec; with WithReadRetry opened one rung past
	// the hard ladder, a failing read then ends in a multi-sense soft
	// decode instead of data loss.)
	sys, err := xlnand.Open(
		xlnand.WithDies(2),
		xlnand.WithBlocks(2),
		xlnand.WithSeed(42),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Every I/O goes through a queue. DoWrite and DoRead run one request
	// and wait for it, filling a result (and, for a read, a page buffer)
	// the caller owns; Do is the same call returning fresh copies.
	q := sys.NewQueue()
	ctx := context.Background()

	// Write a page of recognisable data to die 0.
	data := make([]byte, sys.PageSize())
	for i := range data {
		data[i] = byte(i * 31)
	}
	var wr xlnand.WriteResult
	if _, err := q.DoWrite(ctx, xlnand.WriteRequest(0, 0, 0, data), &wr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote page 0.0 with %s at t=%d (%d parity bytes, program %v)\n",
		wr.Alg, wr.T, wr.ParityBy, wr.Latency.Program)

	// Read it back on the fresh device: errors are very rare.
	page := make([]byte, sys.PageSize())
	var rd xlnand.ReadResult
	if _, err := q.DoRead(ctx, xlnand.ReadRequest(0, 0, 0), page, &rd); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fresh read: %d bit error(s) corrected, latency %v\n",
		rd.Corrected, rd.Latency.Total())

	// Fast-forward die 0's block 1 to 100k program/erase cycles and
	// store a page there: the reliability manager raises t
	// automatically.
	if err := sys.AgeBlock(0, 1, 1e5); err != nil {
		log.Fatal(err)
	}
	if _, err := q.DoWrite(ctx, xlnand.WriteRequest(0, 1, 0, data), &wr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aged block write: manager raised capability to t=%d\n", wr.T)

	rdAged, err := q.Do(ctx, xlnand.ReadRequest(0, 1, 0))
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(rdAged.Data, data) {
		log.Fatal("content corrupted")
	}
	// Every read reports its recovery-ladder climate: Retries counts the
	// re-senses at shifted read references a failing decode triggered
	// (0 = first sense decoded), AppliedOffset is the reference step of
	// the final sense, and Latency sums every stage (rd.Stages holds the
	// per-stage split when the ladder engaged). The budget is an Open
	// option: xlnand.WithReadRetry(n).
	fmt.Printf("aged read: %d bit error(s) corrected, content intact, latency %v (%d retries, offset step %d)\n",
		rdAged.Corrected, rdAged.Read.Latency.Total(), rdAged.Retries, rdAged.Read.AppliedOffset)

	// The batched path: submit writes and reads across both dies in one
	// call; array operations overlap while bus and codec serialise. The
	// batch runs in request order, so its modelled makespan is the same
	// on every run.
	var batch []xlnand.Request
	for die := 0; die < sys.Dies(); die++ {
		for p := 1; p < 5; p++ {
			batch = append(batch, xlnand.WriteRequest(die, 0, p, data))
		}
	}
	for die := 0; die < sys.Dies(); die++ {
		for p := 1; p < 5; p++ {
			batch = append(batch, xlnand.ReadRequest(die, 0, p))
		}
	}
	comps, err := q.Submit(ctx, batch)
	if err != nil {
		log.Fatal(err)
	}
	start, finish := comps[0].Start, comps[0].Finish
	corrected := 0
	for _, c := range comps {
		if c.Err != nil {
			log.Fatal(c.Err)
		}
		corrected += c.Corrected
		start, finish = min(start, c.Start), max(finish, c.Finish)
	}
	fmt.Printf("queued %d ops over %d dies: %d error(s) corrected, makespan %v\n",
		len(comps), sys.Dies(), corrected, finish-start)
	// Output:
	// wrote page 0.0 with ISPP-SV at t=3 (6 parity bytes, program 845µs)
	// fresh read: 0 bit error(s) corrected, latency 251.078µs
	// aged block write: manager raised capability to t=25
	// aged read: 2 bit error(s) corrected, content intact, latency 282.186µs (0 retries, offset step 0)
	// queued 16 ops over 2 dies: 0 error(s) corrected, makespan 4.677202ms
}

// Endurance walk-through: sweep the device lifetime and watch the
// self-adaptive reliability manager re-size the ECC capability as the raw
// bit error rate degrades — the staircase behind the paper's Fig. 8 — and
// how the three service levels trade off at each age. The final section
// replays the same story as a measured biography: the deterministic
// lifetime scenario engine drives the full stack from fresh silicon to
// end of life and reports what the device actually experienced.
func Example_endurance() {
	sys, err := xlnand.Open(xlnand.WithBlocks(1), xlnand.WithSeed(5))
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	fmt.Println("Adaptive capability schedule and mode metrics across the lifetime")
	fmt.Println()
	fmt.Printf("%10s | %14s | %6s %6s | %11s %11s | %9s\n",
		"P/E cycles", "RBER (SV)", "t(SV)", "t(DV)", "nom read", "fast read", "read gain")
	for _, cycles := range []float64{1, 1e2, 1e3, 1e4, 1e5, 3e5, 1e6} {
		nom, err := sys.EvaluateMode(xlnand.ModeNominal, cycles)
		if err != nil {
			log.Fatal(err)
		}
		fast, err := sys.EvaluateMode(xlnand.ModeMaxRead, cycles)
		if err != nil {
			log.Fatal(err)
		}
		gain := fast.ReadMBps/nom.ReadMBps - 1
		fmt.Printf("%10.0g | %14.2e | %6d %6d | %8.2f MB/s %8.2f MB/s | %8.1f%%\n",
			cycles, nom.RBER, nom.T, fast.T, nom.ReadMBps, fast.ReadMBps, gain*100)
	}

	// Show the schedule actually engaging on the device: write the same
	// block at increasing wear and report the capability the manager
	// picked.
	fmt.Println("\nmanager-selected capability on live writes:")
	q := sys.NewQueue()
	ctx := context.Background()
	data := make([]byte, sys.PageSize())
	for i, wear := range []float64{1, 1e4, 1e6} {
		if err := sys.AgeBlock(0, 0, wear); err != nil {
			log.Fatal(err)
		}
		wr, err := q.Do(ctx, xlnand.WriteRequest(0, 0, i, data))
		if err != nil {
			log.Fatal(err)
		}
		rd, err := q.Do(ctx, xlnand.ReadRequest(0, 0, i))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wear %8.0g: wrote at t=%d, read back with %d error(s) corrected\n",
			wear, wr.T, rd.Corrected)
	}

	// The analytic staircase above predicts the trade-off; the scenario
	// engine measures it. The read-archive biography streams a filled
	// partition across the whole lifetime under retention bakes and read
	// disturb, with the background scrubber running and the wear-ladder
	// policy walking the partition from nominal to max-read service —
	// seed-reproducible, so this table is identical on every run.
	fmt.Println("\nmeasured biography (lifetime scenario engine, scenario read-archive):")
	rep, err := lifetime.Run(lifetime.ReadIntensiveArchive())
	if err != nil {
		log.Fatal(err)
	}
	rep.WriteTable(os.Stdout)
	last := rep.Phases[len(rep.Phases)-1]
	fmt.Printf("\nend of life reached at %.0f P/E cycles in %s mode: %.2f MB/s reads, %d bits corrected, %d reads lost\n",
		last.WearMax, last.Partitions[0].Mode, last.ReadMBps, rep.Totals.CorrectedBits, rep.Totals.UncorrectableReads)
	// Output:
	// Adaptive capability schedule and mode metrics across the lifetime
	//
	// P/E cycles |      RBER (SV) |  t(SV)  t(DV) |    nom read   fast read | read gain
	//          1 |       1.00e-06 |      3      3 |    15.51 MB/s    15.51 MB/s |      0.0%
	//      1e+02 |       1.00e-06 |      3      3 |    15.51 MB/s    15.51 MB/s |      0.0%
	//      1e+03 |       5.62e-06 |      5      3 |    15.47 MB/s    15.51 MB/s |      0.3%
	//      1e+04 |       3.16e-05 |      9      4 |    15.35 MB/s    15.49 MB/s |      0.9%
	//      1e+05 |       1.78e-04 |     21      7 |    14.77 MB/s    15.41 MB/s |      4.3%
	//      3e+05 |       4.05e-04 |     35      9 |    13.76 MB/s    15.35 MB/s |     11.5%
	//      1e+06 |       1.00e-03 |     65     14 |    11.04 MB/s    15.15 MB/s |     37.1%
	//
	// manager-selected capability on live writes:
	//   wear        1: wrote at t=3, read back with 0 error(s) corrected
	//   wear    1e+04: wrote at t=10, read back with 0 error(s) corrected
	//   wear    1e+06: wrote at t=65, read back with 30 error(s) corrected
	//
	// measured biography (lifetime scenario engine, scenario read-archive):
	// scenario read-archive (seed 42, 2 dies x 4 blocks)
	// phase               reads   writes  corrected    uncorr   retry   recov    soft   scrub retired  wearmax  readMB/s      UBER
	// fill                   27      193          0         0       0       0       0       0       0        0     16.30  0.00e+00
	// young-stream          227       13         69         0       0       0       0       0       0     1000     16.13  0.00e+00
	// mid-life-stream       226       14        773         0       0       0       0       0       0    10002     15.52  0.00e+00
	// late-stream           236        4       6200         0       0       0       0       0       0   150004     13.68  0.00e+00
	// eol-stream            208       12       4312         0       0       0       0       0       0  1000005     14.92  0.00e+00
	// TOTAL                 924      236      11354         0       0       0       0       0       0  1000005            0.00e+00
	//
	// end of life reached at 1000005 P/E cycles in max-read mode: 14.92 MB/s reads, 11354 bits corrected, 0 reads lost
}

// Read-intensive scenario (paper §6.3.2): a multimedia workload on a worn
// device compares the nominal configuration against the cross-layer
// max-read mode — ISPP-DV programming with the ECC relaxed to hold
// UBER = 1e-11 — and measures the read-throughput gain.
func Example_readIntensive() {
	sys, err := xlnand.Open(xlnand.WithBlocks(2), xlnand.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	const wear = 1e6 // end of life, where the gain peaks
	for b := 0; b < sys.Blocks(); b++ {
		if err := sys.AgeBlock(0, b, wear); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("Streaming workload on a device at %.0g P/E cycles\n\n", wear)
	fmt.Printf("%-10s %4s %10s %12s %12s %12s\n",
		"mode", "t", "UBER", "read MB/s", "write MB/s", "read latency")

	var nominal, maxRead xlnand.OperatingPoint
	for _, m := range []xlnand.Mode{xlnand.ModeNominal, xlnand.ModeMaxRead} {
		op, err := sys.EvaluateMode(m, wear)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %4d %10.1e %12.2f %12.2f %12v\n",
			m, op.T, op.UBER, op.ReadMBps, op.WriteMBps, op.ReadLatency)
		if m == xlnand.ModeNominal {
			nominal = op
		} else {
			maxRead = op
		}
	}

	gain := maxRead.ReadMBps/nominal.ReadMBps - 1
	loss := 1 - maxRead.WriteMBps/nominal.WriteMBps
	fmt.Printf("\ncross-layer result: +%.0f%% read throughput at iso-UBER, "+
		"paying %.0f%% write throughput\n", gain*100, loss*100)

	// Demonstrate it on real traffic: stream a media file through both
	// modes via the batched queue — the mode rides on each write request,
	// so no global reconfiguration separates the two streams.
	pages := 24
	payload := make([]byte, sys.PageSize())
	q := sys.NewQueue()
	ctx := context.Background()
	for _, svc := range []struct {
		label string
		mode  xlnand.Mode
		block int
	}{
		{"nominal", xlnand.ModeNominal, 0},
		{"max-read", xlnand.ModeMaxRead, 1},
	} {
		var writes []xlnand.Request
		for p := 0; p < pages; p++ {
			r := xlnand.WriteRequest(0, svc.block, p, payload)
			r.Mode = svc.mode.Ptr()
			writes = append(writes, r)
		}
		if _, err := q.Submit(ctx, writes); err != nil {
			log.Fatal(err)
		}
		var totalRead, corrected int
		var readTime float64
		for rep := 0; rep < 4; rep++ { // each page streamed 4 times
			var reads []xlnand.Request
			for p := 0; p < pages; p++ {
				reads = append(reads, xlnand.ReadRequest(0, svc.block, p))
			}
			comps, err := q.Submit(ctx, reads)
			if err != nil {
				log.Fatal(err)
			}
			for _, c := range comps {
				if c.Err != nil {
					log.Fatal(c.Err)
				}
				totalRead++
				corrected += c.Corrected
				readTime += c.Read.Latency.Total().Seconds()
			}
		}
		mbps := float64(totalRead*sys.PageSize()) / readTime / 1e6
		fmt.Printf("  %-9s streamed %3d page reads: %6.2f MB/s, %d bit errors corrected\n",
			svc.label, totalRead, mbps, corrected)
	}
	// Output:
	// Streaming workload on a device at 1e+06 P/E cycles
	//
	// mode          t       UBER    read MB/s   write MB/s read latency
	// nominal      65    1.8e-11        11.04         4.10     370.86µs
	// max-read     14    7.7e-12        15.15         2.06    270.419µs
	//
	// cross-layer result: +37% read throughput at iso-UBER, paying 50% write throughput
	//   nominal   streamed  96 page reads:  11.04 MB/s, 3249 bit errors corrected
	//   max-read  streamed  96 page reads:  15.16 MB/s, 236 bit errors corrected
}

// Mission-critical scenario (paper §6.3.1): an OS-upgrade-style critical
// store switches the physical layer to ISPP-DV while keeping the nominal
// ECC configuration, buying orders of magnitude of UBER at zero read-
// throughput cost.
func Example_missionCritical() {
	sys, err := xlnand.Open(xlnand.WithBlocks(2), xlnand.WithSeed(13))
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	fmt.Println("UBER minimisation for critical data (OS images, secure transactions)")
	fmt.Println()
	fmt.Printf("%10s | %22s | %22s | %8s\n", "P/E cycles",
		"nominal UBER (SV)", "min-UBER mode (DV)", "decades")
	for _, wear := range []float64{1e2, 1e4, 1e6} {
		nom, err := sys.EvaluateMode(xlnand.ModeNominal, wear)
		if err != nil {
			log.Fatal(err)
		}
		crit, err := sys.EvaluateMode(xlnand.ModeMinUBER, wear)
		if err != nil {
			log.Fatal(err)
		}
		decades := math.Log10(nom.UBER) - math.Log10(crit.UBER)
		fmt.Printf("%10.0g | %22.3e | %22.3e | %8.1f\n",
			wear, nom.UBER, crit.UBER, decades)
		if crit.ReadLatency != nom.ReadLatency {
			log.Fatalf("read latency changed: %v vs %v", crit.ReadLatency, nom.ReadLatency)
		}
	}
	fmt.Println("\nread latency identical in both modes (same ECC configuration);")

	// The cost side: write throughput and device power.
	nom, _ := sys.EvaluateMode(xlnand.ModeNominal, 1e4)
	crit, _ := sys.EvaluateMode(xlnand.ModeMinUBER, 1e4)
	fmt.Printf("cost: write %.2f -> %.2f MB/s (-%.0f%%), device power +%.1f mW\n",
		nom.WriteMBps, crit.WriteMBps,
		(1-crit.WriteMBps/nom.WriteMBps)*100,
		(crit.ProgramPowerW-nom.ProgramPowerW)*1e3)

	// Store a critical payload with a per-request min-UBER override — no
	// global mode switch, so surrounding traffic keeps its own level —
	// and verify integrity.
	if err := sys.AgeBlock(0, 0, 1e4); err != nil {
		log.Fatal(err)
	}
	image := make([]byte, sys.PageSize())
	for i := range image {
		image[i] = byte(i>>3 ^ i)
	}
	q := sys.NewQueue()
	ctx := context.Background()
	req := xlnand.WriteRequest(0, 0, 0, image)
	req.Mode = xlnand.ModeMinUBER.Ptr()
	wr, err := q.Do(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	rd, err := q.Do(ctx, xlnand.ReadRequest(0, 0, 0))
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(rd.Data, image) {
		log.Fatal("critical payload corrupted")
	}
	fmt.Printf("\ncritical page stored with %s at t=%d and verified intact "+
		"(%d raw errors corrected)\n", wr.Alg, wr.T, rd.Corrected)
	// Output:
	// UBER minimisation for critical data (OS images, secure transactions)
	//
	// P/E cycles |      nominal UBER (SV) |     min-UBER mode (DV) |  decades
	//      1e+02 |              1.434e-12 |              7.325e-17 |      4.3
	//      1e+04 |              4.861e-12 |              2.022e-22 |     10.4
	//      1e+06 |              1.820e-11 |              2.655e-69 |     57.8
	//
	// read latency identical in both modes (same ECC configuration);
	// cost: write 4.40 -> 2.50 MB/s (-43%), device power +7.1 mW
	//
	// critical page stored with ISPP-DV at t=9 and verified intact (0 raw errors corrected)
}

// Partitioned storage (paper §7 future work): one three-die array
// exposing three differentiated storage services, each running at its
// own cross-layer operating point — min-UBER for the OS image, max-read
// for media, nominal for scratch data — with garbage collection and
// wear levelling underneath, and every partition's blocks striped
// across the dies.
func Example_partitioned() {
	sys, err := xlnand.Open(
		xlnand.WithDies(3),
		xlnand.WithBlocks(3),
		xlnand.WithSeed(21),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	st, err := sys.NewStorage([]xlnand.PartitionSpec{
		{Name: "system", Blocks: 2, Mode: xlnand.ModeMinUBER},
		{Name: "media", Blocks: 4, Mode: xlnand.ModeMaxRead},
		{Name: "scratch", Blocks: 3, Mode: xlnand.ModeNominal},
	})
	if err != nil {
		log.Fatal(err)
	}

	page := func(tag byte) []byte {
		d := make([]byte, sys.PageSize())
		for i := range d {
			d[i] = tag ^ byte(i)
		}
		return d
	}

	// OS image into the high-reliability partition.
	for lpa := 0; lpa < 16; lpa++ {
		if err := st.Write("system", lpa, page(0xA0)); err != nil {
			log.Fatal(err)
		}
	}
	// Media library into the read-optimised partition; stream it twice.
	for lpa := 0; lpa < 48; lpa++ {
		if err := st.Write("media", lpa, page(0xB0)); err != nil {
			log.Fatal(err)
		}
	}
	for rep := 0; rep < 2; rep++ {
		for lpa := 0; lpa < 48; lpa++ {
			if _, _, err := st.Read("media", lpa); err != nil {
				log.Fatal(err)
			}
		}
	}
	// Churny scratch traffic: small working set overwritten far past the
	// partition's raw size, exercising garbage collection.
	for i := 0; i < 400; i++ {
		if err := st.Write("scratch", i%24, page(0xC0)); err != nil {
			log.Fatal(err)
		}
	}

	// Verify one page per partition.
	for _, part := range []string{"system", "media", "scratch"} {
		_, res, err := st.Read(part, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s read ok: algorithm %s, t=%d, %d error(s) corrected\n",
			part, res.Alg, res.T, res.Corrected)
	}

	fmt.Println("\nper-partition service statistics:")
	stats, err := st.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %-9s %7s %7s %8s %7s %5s %7s %10s\n",
		"name", "mode", "writes", "reads", "gc-moves", "erases", "WA", "wear", "svc time")
	for _, ps := range stats {
		fmt.Printf("%-8s %-9s %7d %7d %8d %7d %5.2f %3.0f..%-3.0f %10v\n",
			ps.Name, ps.Mode, ps.HostWrites, ps.HostReads, ps.GCMoves,
			ps.Erases, ps.WriteAmplification, ps.WearMin, ps.WearMax, ps.ServiceTime)
	}
	// Output:
	// system   read ok: algorithm ISPP-DV, t=3, 0 error(s) corrected
	// media    read ok: algorithm ISPP-DV, t=3, 0 error(s) corrected
	// scratch  read ok: algorithm ISPP-SV, t=3, 0 error(s) corrected
	//
	// per-partition service statistics:
	// name     mode       writes   reads gc-moves  erases    WA    wear   svc time
	// system   min-UBER       16       1        0       0  1.00   0..0   22.331078ms
	// media    max-read       48      97        0       0  1.00   0..0   90.594566ms
	// scratch  nominal       400       1        0       5  1.00   1..2   338.251078ms
}

// A 16-drive striped volume behind a host cache with two tenants — a
// latency-sensitive one unthrottled, a background scanner under a token
// bucket — and the merged fleet telemetry: cache hit rate, per-tenant
// fairness, per-drive wear.
//
// The run is deterministic: the drives execute concurrently, but every
// order-sensitive merge happens at a barrier in drive-index order, so
// the same seed always prints the same numbers.
func ExampleOpenArray() {
	a, err := xlnand.OpenArray(xlnand.ArrayConfig{
		Drives:       16,
		DiesPerDrive: 1,
		BlocksPerDie: 4,
		Seed:         42,
		Cache:        xlnand.ArrayCacheConfig{Pages: 96},
		Tenants: []xlnand.ArrayTenant{
			{Name: "latency"},                     // unthrottled
			{Name: "scan", Rate: 2000, Burst: 16}, // 2000 ops/modelled-second
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	fmt.Printf("volume: %d pages of %d bytes striped over 16 drives\n",
		a.VolumePages(), a.PageBytes())

	// Fill a working set. Writes land in the write-back buffer and reach
	// the drives on eviction or flush.
	const workingSet = 160
	page := func(i int) []byte {
		data := make([]byte, a.PageBytes())
		for j := range data {
			data[j] = byte(i*31 + j)
		}
		return data
	}
	for p := 0; p < workingSet; p++ {
		if err := a.Submit(xlnand.ArrayOp{Tenant: "latency", Write: true, Page: p, Data: page(p)}); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := a.Drain(); err != nil {
		log.Fatal(err)
	}

	// Both tenants hammer the working set: the scanner streams it in
	// order, the latency tenant re-reads a hot subset that fits the
	// cache.
	for round := 0; round < 6; round++ {
		for p := 0; p < workingSet; p++ {
			if err := a.Submit(xlnand.ArrayOp{Tenant: "scan", Page: p}); err != nil {
				log.Fatal(err)
			}
			if err := a.Submit(xlnand.ArrayOp{Tenant: "latency", Page: p % 64}); err != nil {
				log.Fatal(err)
			}
		}
		results, err := a.Drain()
		if err != nil {
			log.Fatal(err)
		}
		hits := 0
		for _, r := range results {
			if r.Err != nil {
				log.Fatalf("%s read of page %d failed: %v", r.Tenant, r.Page, r.Err)
			}
			if r.CacheHit {
				hits++
			}
		}
		fmt.Printf("round %d: %d ops, %d served from host cache, clock %v\n",
			round, len(results), hits, a.Clock())
	}

	// The merged fleet report: cache climate, tenant fairness, and the
	// per-drive telemetry in drive-index order.
	rep := a.Report()
	fmt.Println()
	fmt.Print(rep.Summary())
	fmt.Printf("\ncache hit rate: %.1f%%\n", rep.Cache.HitRate()*100)
	for _, tn := range rep.Tenants {
		fmt.Printf("tenant %-8s reads %4d writes %4d throttled-passes %d\n",
			tn.Name, tn.Reads, tn.Writes, tn.Throttled)
	}
	// Output:
	// volume: 3072 pages of 4096 bytes striped over 16 drives
	// round 0: 320 ops, 96 served from host cache, clock 80.576703ms
	// round 1: 320 ops, 96 served from host cache, clock 160.576703ms
	// round 2: 320 ops, 96 served from host cache, clock 240.576703ms
	// round 3: 320 ops, 96 served from host cache, clock 320.576703ms
	// round 4: 320 ops, 96 served from host cache, clock 400.576703ms
	// round 5: 320 ops, 96 served from host cache, clock 480.576703ms
	//
	// fleet: 16 drives (none, 0 spare), 3072 volume pages (stripe 1), seed 42
	//   clock 0.480577s  rounds 1802  stalls 885  fleet IOPS 4328
	//   cache[lru cap 96]: hits 576 misses 1344 (30.0%) evict 1024 writeback 160 lost 0
	//   tenant latency      reads    960 (hits    208) writes    160 throttled 0  p50/p99 251.9/264.1us
	//   tenant scan         reads    960 (hits    368) writes      0 throttled 2702  p50/p99 251.9/264.1us
	//   lat clean read    n     1344  p50     251.9us  p99     264.1us  p99.9     264.1us  max     264.1us
	//   lat write         n      160  p50    1021.1us  p99    1021.1us  p99.9    1021.1us  max    1021.1us
	//   totals: host R/W 1344/160  gc 0  erases 0  retries recovered 0  soft 0/0  UBER 0
	//
	// cache hit rate: 30.0%
	// tenant latency  reads  960 writes  160 throttled-passes 0
	// tenant scan     reads  960 writes    0 throttled-passes 2702
}
