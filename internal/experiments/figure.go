// Package experiments contains one runner per figure of the paper's
// evaluation (Figs. 4-11, including the mis-referenced "Fig. ??" as
// Fig. 7-DV) plus the ablations DESIGN.md §2 lists. Each runner returns a
// Figure — a plot-ready bundle of named series — that render.go draws
// as an ASCII chart, a table or CSV, and that the benchmark harness
// prints row by row.
package experiments

import "fmt"

// Series is one named curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a plot-ready experiment result.
type Figure struct {
	ID     string // e.g. "fig05"
	Title  string
	XLabel string
	YLabel string
	LogX   bool
	LogY   bool
	Series []Series
	// Notes records reproduction caveats (substitutions, known
	// deviations from the paper).
	Notes []string
}

// AddSeries appends a curve, validating lengths.
func (f *Figure) AddSeries(name string, x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("experiments: series %q has %d x vs %d y", name, len(x), len(y))
	}
	f.Series = append(f.Series, Series{Name: name, X: x, Y: y})
	return nil
}

// mustAdd is the internal panic-on-misuse variant (lengths are
// constructed equal by the runners).
func (f *Figure) mustAdd(name string, x, y []float64) {
	if err := f.AddSeries(name, x, y); err != nil {
		panic(err)
	}
}

// Bounds returns the data extent across all series.
func (f *Figure) Bounds() (xmin, xmax, ymin, ymax float64, ok bool) {
	first := true
	for _, s := range f.Series {
		for i := range s.X {
			if first {
				xmin, xmax, ymin, ymax = s.X[i], s.X[i], s.Y[i], s.Y[i]
				first = false
				continue
			}
			if s.X[i] < xmin {
				xmin = s.X[i]
			}
			if s.X[i] > xmax {
				xmax = s.X[i]
			}
			if s.Y[i] < ymin {
				ymin = s.Y[i]
			}
			if s.Y[i] > ymax {
				ymax = s.Y[i]
			}
		}
	}
	return xmin, xmax, ymin, ymax, !first
}
