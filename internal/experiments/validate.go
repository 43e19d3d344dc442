package experiments

import (
	"xlnand/internal/controller"
	"xlnand/internal/dispatch"
	"xlnand/internal/sim"
	"xlnand/internal/workload"
)

// ExtWorkloadValidation cross-validates the analytic operating-point
// model against the discrete-event path: a read-intensive trace is
// replayed through the dispatcher queue of a one-die stack in the
// nominal and max-read modes at end of life, and the measured read
// throughput is plotted next to the analytic prediction. The two
// columns agreeing is the evidence that Figs. 9/11 (computed
// analytically, like the paper's) describe what the transaction-level
// system actually does.
func ExtWorkloadValidation(env sim.Env, seed uint64) (Figure, error) {
	f := Figure{
		ID:     "ext-validate",
		Title:  "Trace replay vs analytic model at end of life (extension)",
		XLabel: "mode (1=nominal, 2=max-read)",
		YLabel: "Read throughput [MB/s]",
		Notes: []string{
			"measured: 240-request read-intensive trace through the full stack; analytic: the operating-point model behind Figs. 9/11",
		},
	}
	const cycles = 1e6
	const blocks = 4
	modes := []sim.Mode{sim.ModeNominal, sim.ModeMaxRead}

	var measured, analytic []float64
	xs := []float64{1, 2}
	for _, m := range modes {
		d, err := dispatch.New(dispatch.Config{
			Dies: 1, BlocksPerDie: blocks, Seed: seed, Env: env, Controller: controller.DefaultConfig(),
		})
		if err != nil {
			return f, err
		}
		for b := 0; b < blocks; b++ {
			if err := d.SetCycles(0, b, cycles); err != nil {
				return f, err
			}
		}
		d.SetDefaultMode(m)
		geo := d.Geometry()
		tr, err := workload.Generate(workload.ReadIntensive(240, blocks, geo.PagesPerBlock), seed)
		if err != nil {
			return f, err
		}
		// One request at a time on one die: every op finds the die, bus
		// and codec idle, so each read's latency is its own service time.
		st, err := workload.Replay(d.NewQueue(), tr, 1)
		if err != nil {
			return f, err
		}
		measured = append(measured, float64((st.Reads-st.Uncorrectable)*geo.PageDataBytes)/st.ReadTime.Seconds()/1e6)

		op, err := env.EvaluateMode(m, cycles)
		if err != nil {
			return f, err
		}
		analytic = append(analytic, op.ReadMBps)
	}
	f.mustAdd("measured (trace replay)", xs, measured)
	f.mustAdd("analytic (operating point)", xs, analytic)
	return f, nil
}
