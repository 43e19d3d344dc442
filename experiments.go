package xlnand

import "xlnand/internal/experiments"

// Figure is a plot-ready experiment result: named series plus axis
// metadata, renderable with RenderASCII/RenderTable/RenderCSV.
type Figure = experiments.Figure

// Experiment describes one reproducible figure of the paper.
type Experiment struct {
	ID          string
	Description string
}

// Experiments lists every figure and ablation the harness can regenerate,
// in paper order.
func Experiments() []Experiment {
	rs := experiments.All()
	out := make([]Experiment, len(rs))
	for i, r := range rs {
		out[i] = Experiment{ID: r.ID, Description: r.Description}
	}
	return out
}

// RunExperiment regenerates one figure by ID (e.g. "fig05", "fig11",
// "abl-blocksize") with the paper's default environment.
func RunExperiment(id string, seed uint64) (Figure, error) {
	r, err := experiments.ByID(id)
	if err != nil {
		return Figure{}, err
	}
	return r.Run(DefaultEnv(), seed)
}

// RenderASCII renders a figure as an ASCII chart of the given size.
func RenderASCII(f Figure, width, height int) string { return experiments.ASCII(f, width, height) }

// RenderTable renders a figure as an aligned data table.
func RenderTable(f Figure) string { return experiments.Table(f) }

// RenderCSV renders a figure as long-format CSV (series,x,y).
func RenderCSV(f Figure) string { return experiments.CSV(f) }
