package experiments

import "xlnand/internal/lifetime"

// ExtLifetime extends the evaluation from operating-point snapshots to a
// measured device biography: it plays a short deterministic lifetime
// scenario through the full stack (queue, dispatcher, FTL, controller,
// adaptive BCH, aging NAND) and plots the corrected-error density and
// read throughput the engine actually observed per phase against the
// wear reached — the paper's Fig. 8/11 story as a trajectory of one
// simulated device rather than a family of analytic curves. Like every
// biography, it runs in sim.DefaultEnv().
func ExtLifetime(seed uint64) (Figure, error) {
	sc := lifetime.GoldenShort()[0]
	sc.Seed = seed
	rep, err := lifetime.Run(sc)
	if err != nil {
		return Figure{}, err
	}
	f := Figure{
		ID:     "ext-lifetime",
		Title:  "Measured lifetime trajectory (scenario " + sc.Name + ")",
		XLabel: "Max P/E cycles reached",
		YLabel: "corrected bits per KB read / read MB/s",
		Notes: []string{
			"extension beyond the paper: end-to-end scenario engine, not analytic curves",
			"every point is a measurement of the full stack under the scenario seed",
		},
	}
	wear := make([]float64, 0, len(rep.Phases))
	density := make([]float64, 0, len(rep.Phases))
	readMBps := make([]float64, 0, len(rep.Phases))
	for _, ph := range rep.Phases {
		if ph.BitsRead == 0 {
			continue
		}
		// Plot wear on a log-friendly axis: fresh phases sit at 1.
		w := ph.WearMax
		if w < 1 {
			w = 1
		}
		wear = append(wear, w)
		density = append(density, float64(ph.CorrectedBits)*8192/float64(ph.BitsRead))
		readMBps = append(readMBps, ph.ReadMBps)
	}
	if err := f.AddSeries("corrected bits / KB read", wear, density); err != nil {
		return f, err
	}
	if err := f.AddSeries("read throughput [MB/s]", wear, readMBps); err != nil {
		return f, err
	}
	return f, nil
}
