package experiments

import (
	"xlnand/internal/bch"
	"xlnand/internal/controller"
	"xlnand/internal/nand"
	"xlnand/internal/sim"
	"xlnand/internal/workload"
)

// ExtWorkloadValidation cross-validates the analytic operating-point
// model against the discrete-event path: a read-intensive trace is
// replayed through the full controller+device stack in the nominal and
// max-read modes at end of life, and the measured read throughput is
// plotted next to the analytic prediction. The two columns agreeing is
// the evidence that Figs. 9/11 (computed analytically, like the paper's)
// describe what the transaction-level system actually does.
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
		dev := nand.NewDevice(env.Cal, blocks, seed)
		for b := 0; b < blocks; b++ {
			if err := dev.SetCycles(b, cycles); err != nil {
				return f, err
			}
		}
		codec, err := bch.NewCodec(env.M, env.K, env.TMin, env.TMax, env.HW)
		if err != nil {
			return f, err
		}
		ctrl, err := controller.New(dev, codec, controller.DefaultConfig())
		if err != nil {
			return f, err
		}
		switch m {
		case sim.ModeNominal:
			ctrl.SetAlgorithm(nand.ISPPSV)
		case sim.ModeMaxRead:
			ctrl.SetAlgorithm(nand.ISPPDV)
		}
		tr, err := workload.Generate(workload.ReadIntensive(240, blocks, dev.PagesPerBlock()), seed)
		if err != nil {
			return f, err
		}
		st, err := workload.Run(ctrl, tr)
		if err != nil {
			return f, err
		}
		measured = append(measured, st.ReadMBps)

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
