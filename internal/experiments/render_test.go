package experiments

import (
	"strings"
	"testing"

	"xlnand/internal/sim"
)

func demoFigure() Figure {
	f := Figure{
		ID: "demo", Title: "Demo figure",
		XLabel: "cycles", YLabel: "rber",
		LogX: true, LogY: true,
		Notes: []string{"a note"},
	}
	if err := f.AddSeries("up", []float64{1e2, 1e3, 1e4}, []float64{1e-6, 1e-5, 1e-4}); err != nil {
		panic(err)
	}
	if err := f.AddSeries("down", []float64{1e2, 1e3, 1e4}, []float64{1e-4, 1e-5, 1e-6}); err != nil {
		panic(err)
	}
	return f
}

func TestASCIIContainsStructure(t *testing.T) {
	s := ASCII(demoFigure(), 60, 15)
	for _, want := range []string{"Demo figure", "cycles (log)", "rber", "* up", "o down", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("ASCII output missing %q:\n%s", want, s)
		}
	}
	// Both series markers must appear in the grid.
	if strings.Count(s, "*") < 3 || strings.Count(s, "o") < 3 {
		t.Fatalf("series markers missing:\n%s", s)
	}
}

func TestASCIIEmptyFigure(t *testing.T) {
	s := ASCII(Figure{Title: "empty"}, 40, 10)
	if !strings.Contains(s, "(no data)") {
		t.Fatalf("empty figure render: %q", s)
	}
}

func TestASCIIClampsTinyDimensions(t *testing.T) {
	s := ASCII(demoFigure(), 1, 1)
	if len(strings.Split(s, "\n")) < 8 {
		t.Fatal("tiny dimensions not clamped")
	}
}

func TestASCIILinearScale(t *testing.T) {
	f := Figure{Title: "lin", XLabel: "x", YLabel: "y"}
	if err := f.AddSeries("s", []float64{0, 1, 2}, []float64{0, 1, 4}); err != nil {
		panic(err)
	}
	s := ASCII(f, 40, 10)
	if strings.Contains(s, "(log)") {
		t.Fatal("linear figure rendered with log axis label")
	}
}

func TestASCIIConstantSeries(t *testing.T) {
	f := Figure{Title: "const", XLabel: "x", YLabel: "y"}
	if err := f.AddSeries("flat", []float64{1, 2, 3}, []float64{5, 5, 5}); err != nil {
		panic(err)
	}
	// Must not panic on zero dynamic range.
	s := ASCII(f, 30, 8)
	if !strings.Contains(s, "flat") {
		t.Fatal("legend missing for constant series")
	}
}

func TestTableFormat(t *testing.T) {
	s := Table(demoFigure())
	for _, want := range []string{"Demo figure", "[demo]", "up", "down", "cycles", "rber", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "1e-06") && !strings.Contains(s, "1e-06") && !strings.Contains(s, "1e-06") {
		// values render in %g; just ensure numeric content is present
		if !strings.Contains(s, "100") {
			t.Fatalf("table missing data:\n%s", s)
		}
	}
}

func TestCSVFormat(t *testing.T) {
	s := CSV(demoFigure())
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if lines[0] != "series,x,y" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 1+6 {
		t.Fatalf("csv has %d lines, want 7", len(lines))
	}
	if !strings.HasPrefix(lines[1], "up,100,") {
		t.Fatalf("first row = %q", lines[1])
	}
}

func TestCSVEscaping(t *testing.T) {
	f := Figure{}
	if err := f.AddSeries(`weird, "name"`, []float64{1}, []float64{2}); err != nil {
		panic(err)
	}
	s := CSV(f)
	if !strings.Contains(s, `"weird, ""name"""`) {
		t.Fatalf("csv escaping broken: %q", s)
	}
}

func TestRealFigureRendering(t *testing.T) {
	// Smoke: render a real experiment figure end to end.
	f := Fig05(sim.DefaultEnv())
	s := ASCII(f, 70, 20)
	if !strings.Contains(s, "RBER ISPP-SV") || !strings.Contains(s, "RBER ISPP-DV") {
		t.Fatalf("real figure render incomplete:\n%s", s)
	}
}
