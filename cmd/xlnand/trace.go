package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"xlnand"
	"xlnand/internal/workload"
)

// traceCmd replays a synthetic workload trace against the full simulated
// sub-system (multi-die dispatcher + controller + adaptive codec + NAND
// devices) through the batched queue API and reports throughput and
// reliability statistics per service level:
//
//	xlnand trace -profile read -ops 400 -cycles 1e5 -mode max-read
//	xlnand trace -profile mixed -ops 300 -mode nominal -dies 4 -batch 64
//
// Each batch runs in request order, so it books the shared bus and codec
// in that order and the output is the same for a seed at any -dies.
func traceCmd(args []string, _ io.Reader, stdout, stderr io.Writer) error {
	fs := newFlags("trace", stderr)
	var (
		profile = fs.String("profile", "read", "workload profile: read, write or mixed")
		ops     = fs.Int("ops", 300, "number of operations")
		cycles  = fs.Float64("cycles", 0, "pre-age every block to this wear")
		mode    = fs.String("mode", "nominal", "service level: nominal, min-uber or max-read")
		seed    = fs.Uint64("seed", 11, "trace seed")
		blocks  = fs.Int("blocks", 4, "flash blocks per die")
		dies    = fs.Int("dies", 1, "NAND dies behind the controller")
		batch   = fs.Int("batch", 32, "requests per queue submission")
		record  = fs.String("record", "", "write the generated trace to this CSV file and exit")
		replay  = fs.String("replay", "", "replay a trace CSV instead of generating one")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	m, ok := map[string]xlnand.Mode{
		"nominal": xlnand.ModeNominal, "min-uber": xlnand.ModeMinUBER, "max-read": xlnand.ModeMaxRead,
	}[*mode]
	if !ok {
		return usageErrorf("unknown mode %q", *mode)
	}
	profileOf, ok := map[string]func(ops, blocks, pages int) workload.Profile{
		"read": workload.ReadIntensive, "write": workload.WriteIntensive, "mixed": workload.Mixed,
	}[*profile]
	if !ok {
		return usageErrorf("unknown profile %q", *profile)
	}
	if *ops < 1 {
		return usageErrorf("-ops must be at least 1, got %d", *ops)
	}
	if *batch < 1 {
		return usageErrorf("-batch must be at least 1, got %d", *batch)
	}

	s, err := xlnand.Open(
		xlnand.WithBlocks(*blocks),
		xlnand.WithDies(*dies),
		xlnand.WithSeed(*seed),
	)
	if err != nil {
		return err
	}
	defer s.Close()
	for d := 0; d < *dies; d++ {
		for b := 0; b < *blocks; b++ {
			if err := s.AgeBlock(d, b, *cycles); err != nil {
				return err
			}
		}
	}
	if err := s.SelectMode(m); err != nil {
		return err
	}

	// The trace addresses a flat block space; the queue stripes it
	// round-robin across the dies.
	totalBlocks := *blocks * *dies
	pages := s.PagesPerBlock()
	var tr workload.Trace
	if *replay != "" {
		fh, err := os.Open(*replay)
		if err != nil {
			return err
		}
		tr, err = workload.ReadTrace(fh)
		fh.Close()
		if err != nil {
			return err
		}
	} else {
		if tr, err = workload.Generate(profileOf(*ops, totalBlocks, pages), *seed); err != nil {
			return err
		}
	}
	if *record != "" {
		if err := writeFile(*record, func(w io.Writer) error { return workload.WriteTrace(w, tr) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded %d requests to %s\n", len(tr.Requests), *record)
		return nil
	}
	fmt.Fprintf(stdout, "trace %q, %d requests, mode %s, wear %.0f cycles, %d die(s), batch %d\n",
		tr.Name, len(tr.Requests), m, *cycles, *dies, *batch)
	return replayTrace(s, tr, *batch, stdout)
}

// replayTrace replays the trace through a queue in batches, which run
// in trace order, and prints the statistics to stdout.
func replayTrace(s *xlnand.Subsystem, tr workload.Trace, batch int, stdout io.Writer) error {
	st, err := workload.Replay(s.NewQueue(), tr, batch)
	if err != nil {
		return err
	}
	// ReadTime and WriteTime are zero when no such op ran.
	meanRead := st.ReadTime / time.Duration(max(st.Reads, 1))
	meanWrite := st.WriteTime / time.Duration(max(st.Writes, 1))
	makespan := st.Last - st.First
	aggregateMBps := 0.0
	if makespan > 0 {
		aggregateMBps = float64(st.Reads+st.Writes) * float64(s.PageSize()) / makespan.Seconds() / 1e6
	}
	fmt.Fprintf(stdout, "  reads:  %6d   (mean service latency %v, queueing included)\n", st.Reads, meanRead)
	fmt.Fprintf(stdout, "  writes: %6d   (mean service latency %v, queueing included)\n", st.Writes, meanWrite)
	fmt.Fprintf(stdout, "  erases: %6d\n", st.Erases)
	fmt.Fprintf(stdout, "  corrected bit errors: %d\n", st.Corrected)
	fmt.Fprintf(stdout, "  uncorrectable pages:  %d\n", st.Uncorrectable)
	fmt.Fprintf(stdout, "  modelled wall time:   %v\n", makespan)
	fmt.Fprintf(stdout, "  aggregate throughput: %.2f MB/s\n", aggregateMBps)
	return nil
}
