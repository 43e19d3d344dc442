package experiments

import (
	"fmt"
	"math"
	"strings"
)

// This file renders figures as ASCII charts, aligned data tables and
// CSV, so the reproduction harness needs no external plotting stack.

// seriesMarks are the glyphs cycled across series in ASCII charts.
var seriesMarks = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&', '$', '~'}

// ASCII renders the figure as a width×height character chart with axes,
// legend and log-scale support.
func ASCII(f Figure, width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	xmin, xmax, ymin, ymax, ok := f.Bounds()
	if !ok {
		return f.Title + "\n(no data)\n"
	}
	tx := scaler(xmin, xmax, f.LogX)
	ty := scaler(ymin, ymax, f.LogY)

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range f.Series {
		mark := seriesMarks[si%len(seriesMarks)]
		for i := range s.X {
			fx := tx(s.X[i])
			fy := ty(s.Y[i])
			if math.IsNaN(fx) || math.IsNaN(fy) {
				continue
			}
			col := int(fx * float64(width-1))
			row := height - 1 - int(fy*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = mark
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	topLabel := fmt.Sprintf("%.3g", ymax)
	botLabel := fmt.Sprintf("%.3g", ymin)
	lw := len(topLabel)
	if len(botLabel) > lw {
		lw = len(botLabel)
	}
	for r := 0; r < height; r++ {
		label := strings.Repeat(" ", lw)
		if r == 0 {
			label = pad(topLabel, lw)
		}
		if r == height-1 {
			label = pad(botLabel, lw)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s+\n", strings.Repeat(" ", lw), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  %-*.3g%*.3g\n", strings.Repeat(" ", lw), width/2, xmin, width-width/2, xmax)
	axis := f.XLabel
	if f.LogX {
		axis += " (log)"
	}
	if f.LogY {
		axis += "   [y: " + f.YLabel + ", log]"
	} else {
		axis += "   [y: " + f.YLabel + "]"
	}
	fmt.Fprintf(&b, "%s  %s\n", strings.Repeat(" ", lw), axis)
	for si, s := range f.Series {
		fmt.Fprintf(&b, "  %c %s\n", seriesMarks[si%len(seriesMarks)], s.Name)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return strings.Repeat(" ", w-len(s)) + s
}

// scaler maps data space to [0,1], optionally logarithmically.
func scaler(lo, hi float64, logScale bool) func(float64) float64 {
	if logScale && lo > 0 {
		llo, lhi := math.Log10(lo), math.Log10(hi)
		if lhi == llo {
			return func(float64) float64 { return 0.5 }
		}
		return func(v float64) float64 {
			if v <= 0 {
				return math.NaN()
			}
			return (math.Log10(v) - llo) / (lhi - llo)
		}
	}
	if hi == lo {
		return func(float64) float64 { return 0.5 }
	}
	return func(v float64) float64 { return (v - lo) / (hi - lo) }
}

// Table renders the figure's data as an aligned text table, one block per
// series (series may have different X grids).
func Table(f Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s]\n", f.Title, f.ID)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "\n%s\n", s.Name)
		fmt.Fprintf(&b, "  %16s  %16s\n", f.XLabel, f.YLabel)
		for i := range s.X {
			fmt.Fprintf(&b, "  %16.6g  %16.6g\n", s.X[i], s.Y[i])
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "\nnote: %s\n", n)
	}
	return b.String()
}

// CSV renders the figure as long-format CSV: series,x,y.
func CSV(f Figure) string {
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, s := range f.Series {
		for i := range s.X {
			fmt.Fprintf(&b, "%s,%g,%g\n", csvEscape(s.Name), s.X[i], s.Y[i])
		}
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
