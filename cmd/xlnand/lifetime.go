package main

import (
	"fmt"
	"io"
	"path/filepath"

	"xlnand/internal/lifetime"
)

// lifetimeCmd runs device-biography scenarios from the internal/lifetime
// catalog against the full stack (queue, dispatcher, FTL, controller,
// adaptive BCH, aging NAND) and prints the per-phase reliability and
// performance trajectory:
//
//	xlnand lifetime -list                 # show the catalog
//	xlnand lifetime -scenario read-archive
//	xlnand lifetime -shortest -json out.json
//	xlnand lifetime -all
//
// Every run is seed-reproducible: the same scenario and seed produce a
// byte-identical report, so a JSON diff is a behaviour diff.
func lifetimeCmd(args []string, _ io.Reader, stdout, stderr io.Writer) error {
	fs := newFlags("lifetime", stderr)
	var (
		list     = fs.Bool("list", false, "list the scenario catalog and exit")
		name     = fs.String("scenario", "", "run one catalog scenario by name")
		all      = fs.Bool("all", false, "run every catalog scenario")
		shortest = fs.Bool("shortest", false, "run the smallest catalog scenario (CI smoke)")
		seed     = fs.Uint64("seed", 0, "override the scenario seed (0 keeps the catalog seed)")
		jsonOut  = fs.String("json", "", "write the full report JSON to this file (- for stdout, tables to stderr)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintf(stdout, "%-18s %6s %6s  %s\n", "scenario", "ops", "phases", "description")
		for _, sc := range lifetime.Catalog() {
			fmt.Fprintf(stdout, "%-18s %6d %6d  %s\n", sc.Name, sc.TotalOps(), len(sc.Phases), sc.Description)
		}
		return nil
	}

	var scenarios []lifetime.Scenario
	switch {
	case *all:
		scenarios = lifetime.Catalog()
	case *shortest:
		scenarios = []lifetime.Scenario{lifetime.ShortestScenario()}
	case *name != "":
		sc, err := lifetime.CatalogScenario(*name)
		if err != nil {
			return err
		}
		scenarios = []lifetime.Scenario{sc}
	default:
		return usageErrorf("pass -list, -scenario <name>, -shortest or -all")
	}

	out := stdout
	if *jsonOut == "-" {
		out = stderr
	}
	for _, sc := range scenarios {
		if *seed != 0 {
			sc.Seed = *seed
		}
		rep, err := lifetime.Run(sc)
		if err != nil {
			return err
		}
		rep.WriteTable(out)
		fmt.Fprintln(out)
		if *jsonOut == "" {
			continue
		}
		js, err := rep.JSON()
		if err != nil {
			return err
		}
		// With several scenarios, one file each: report.json becomes
		// report-<scenario>.json so no report overwrites another.
		path := *jsonOut
		if len(scenarios) > 1 && path != "-" {
			ext := filepath.Ext(path)
			path = path[:len(path)-len(ext)] + "-" + sc.Name + ext
		}
		if err := writeJSON(path, js, stdout); err != nil {
			return err
		}
	}
	return nil
}
