package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"xlnand/internal/experiments"
	"xlnand/internal/sim"
)

// figuresCmd regenerates the figures of the paper, and of the
// extensions, from the model stack:
//
//	xlnand figures -fig fig05                # one figure, ASCII chart
//	xlnand figures -all -format table        # every figure as data tables
//	xlnand figures -all -format csv -out dir # CSV files for external plotting
//	xlnand figures -list                     # available figure IDs
func figuresCmd(args []string, _ io.Reader, stdout, stderr io.Writer) error {
	fs := newFlags("figures", stderr)
	var (
		figID  = fs.String("fig", "", "figure ID to regenerate (see -list)")
		all    = fs.Bool("all", false, "regenerate every figure")
		list   = fs.Bool("list", false, "list available figures")
		format = fs.String("format", "ascii", "output format: ascii, table or csv")
		outDir = fs.String("out", "", "write per-figure files to this directory instead of stdout")
		width  = fs.Int("width", 76, "ASCII chart width")
		height = fs.Int("height", 22, "ASCII chart height")
		seed   = fs.Uint64("seed", 42, "simulation seed")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "  %-16s %s\n", e.ID, e.Description)
		}
		return nil
	}
	var ids []string
	switch {
	case *all:
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	case *figID != "":
		ids = []string{*figID}
	default:
		return usageErrorf("pass -fig <id>, -all or -list")
	}

	for _, id := range ids {
		r, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		fig, err := r.Run(sim.DefaultEnv(), *seed)
		if err != nil {
			return err
		}
		var rendered, ext string
		switch *format {
		case "ascii":
			rendered, ext = experiments.ASCII(fig, *width, *height), "txt"
		case "table":
			rendered, ext = experiments.Table(fig), "txt"
		case "csv":
			rendered, ext = experiments.CSV(fig), "csv"
		default:
			return usageErrorf("unknown format %q", *format)
		}
		if *outDir == "" {
			fmt.Fprintf(stdout, "==== %s ====\n%s\n", id, rendered)
			continue
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*outDir, id+"."+ext)
		if err := os.WriteFile(path, []byte(rendered), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
}

// tradeoffCmd enumerates the cross-layer operating points of paper §6.3
// at one wear level: the full (algorithm × capability) grid, its Pareto
// front and the three named service levels.
//
//	xlnand tradeoff -cycles 1e6            # end-of-life trade-off table
//	xlnand tradeoff -cycles 1e4 -stride 4  # thinner capability grid
func tradeoffCmd(args []string, _ io.Reader, stdout, stderr io.Writer) error {
	fs := newFlags("tradeoff", stderr)
	cycles := fs.Float64("cycles", 1e5, "program/erase cycles (wear level)")
	stride := fs.Int("stride", 8, "capability grid stride")
	if err := parse(fs, args); err != nil {
		return err
	}

	env := sim.DefaultEnv()
	header := fmt.Sprintf("%-8s %4s  %10s  %10s  %9s  %9s  %8s  %8s  %8s",
		"alg", "t", "RBER", "UBER", "read MB/s", "write MB/s", "power W", "wr pJ/b", "rd pJ/b")
	line := func(p sim.OperatingPoint, tag string) string {
		return fmt.Sprintf("%-8s %4d  %10.2e  %10.2e  %9.2f  %9.2f  %8.4f  %8.0f  %8.0f %s",
			p.Alg, p.T, p.RBER, p.UBER, p.ReadMBps, p.WriteMBps,
			p.ProgramPowerW+p.ECCPowerW, p.WriteEnergyPJPerBit, p.ReadEnergyPJPerBit, tag)
	}

	pts, err := env.ExplorePoints(*cycles, *stride)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Cross-layer operating points at %.0f P/E cycles (target UBER 1e-11)\n\n", *cycles)
	fmt.Fprintln(stdout, "Full grid:")
	fmt.Fprintln(stdout, header)
	for _, p := range pts {
		tag := ""
		if p.UBER <= 1e-11 {
			tag = "meets target"
		}
		fmt.Fprintln(stdout, line(p, tag))
	}

	fmt.Fprintln(stdout, "\nPareto front (UBER / read / write / power):")
	fmt.Fprintln(stdout, header)
	for _, p := range sim.ParetoFront(pts) {
		fmt.Fprintln(stdout, line(p, ""))
	}

	fmt.Fprintln(stdout, "\nPaper service levels:")
	fmt.Fprintln(stdout, header)
	for _, m := range []sim.Mode{sim.ModeNominal, sim.ModeMinUBER, sim.ModeMaxRead} {
		p, err := env.EvaluateMode(m, *cycles)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, line(p, "<- "+m.String()))
	}
	return nil
}
