package experiments

import (
	"strings"
	"testing"
)

func TestAblationBlockSizeShape(t *testing.T) {
	f, err := AblationBlockSize(env())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("%d series, want 3", len(f.Series))
	}
	small := findSeries(t, f, "512 B blocks (Chen et al. [28])")
	large := findSeries(t, f, "4 KB page (this work)")
	// §6.2's claim: longer blocks protect with fewer parity bits — the
	// 4 KB overhead must sit below the 512 B overhead at every RBER.
	for i := range small.X {
		if large.Y[i] >= small.Y[i] {
			t.Fatalf("4 KB overhead %v%% not below 512 B overhead %v%% at RBER %g",
				large.Y[i], small.Y[i], small.X[i])
		}
	}
	// The worst-case 4 KB overhead must fit the spare area: 1040 bits of
	// 224·8 = 1792 available (the paper's implicit feasibility claim).
	for i := range large.X {
		if large.Y[i] > 100*1040.0/32768.0+0.5 {
			t.Fatalf("4 KB overhead %v%% exceeds the t=65 budget", large.Y[i])
		}
	}
}

func TestAblationISPPShape(t *testing.T) {
	f, err := AblationISPP(env(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sigma := findSeries(t, f, "SV sigma [mV]")
	times := findSeries(t, f, "SV program time [10 µs]")
	// Smaller steps compact the distribution but cost time: sigma grows
	// with step, time shrinks with step.
	for i := 1; i < len(sigma.X); i++ {
		if sigma.Y[i] < sigma.Y[i-1]*0.8 {
			t.Fatalf("sigma not growing with step at ΔISPP=%g", sigma.X[i])
		}
		if times.Y[i] > times.Y[i-1]*1.05 {
			t.Fatalf("program time not shrinking with step at ΔISPP=%g", times.X[i])
		}
	}
	// The cross-layer pitch: DV at the nominal step achieves compaction
	// comparable to a much finer SV step at lower time cost than that
	// step. DV sigma must beat nominal-step SV sigma.
	dvSigma := findSeries(t, f, "DV sigma [mV]")
	nominalIdx := -1
	for i, x := range sigma.X {
		if x == 0.25 {
			nominalIdx = i
		}
	}
	if nominalIdx < 0 {
		t.Fatal("nominal step missing from sweep")
	}
	if dvSigma.Y[0] >= sigma.Y[nominalIdx] {
		t.Fatalf("DV sigma %v mV not below nominal SV sigma %v mV",
			dvSigma.Y[0], sigma.Y[nominalIdx])
	}
}

func TestAblationParallelismShape(t *testing.T) {
	f := AblationParallelism(env())
	if len(f.Series) != 3 {
		t.Fatalf("%d series, want 3 (p sweep)", len(f.Series))
	}
	for _, s := range f.Series {
		// Within one p series, more multipliers (larger h) must never
		// slow decoding down.
		for i := 1; i < len(s.X); i++ {
			if s.X[i] <= s.X[i-1] {
				t.Fatalf("%s: multiplier count not increasing", s.Name)
			}
			if s.Y[i] > s.Y[i-1] {
				t.Fatalf("%s: latency grew with added area", s.Name)
			}
		}
	}
}

func TestAblationLoadStrategyShape(t *testing.T) {
	f := AblationLoadStrategy(env())
	full := findSeries(t, f, "full-sequence")
	two := findSeries(t, f, "two-round")
	for i := range full.X {
		if two.Y[i] >= full.Y[i] {
			t.Fatalf("two-round loss %.1f%% not below full-sequence %.1f%% at N=%g",
				two.Y[i], full.Y[i], full.X[i])
		}
		if two.Y[i] < 5 {
			t.Fatalf("two-round loss %.1f%% implausibly low at N=%g", two.Y[i], full.X[i])
		}
	}
}

func TestAblationApproximationShape(t *testing.T) {
	// This ablation deliberately exposes where Eq. 1 breaks down: the
	// ratio must be >= 1 everywhere (the tail contains the dominant
	// term) and ≈ 1 only inside the sparse regime n·RBER << t+1.
	e := env()
	f := AblationApproximation(e)
	ts := []int{3, 14, 65}
	for si, s := range f.Series {
		tc := ts[si]
		n := e.K + e.M*tc
		for i, ratio := range s.Y {
			if ratio < 1-1e-9 {
				t.Fatalf("%s: tail below dominant term at x=%g", s.Name, s.X[i])
			}
			if s.X[i]*float64(n) < float64(tc+1)/2 && ratio > 2 {
				t.Fatalf("%s: ratio %v too loose inside the sparse regime (RBER %g)",
					s.Name, ratio, s.X[i])
			}
		}
		// Outside the regime the dominant term must visibly underestimate
		// for the small-t series, demonstrating why RequiredT uses the
		// tail.
		if tc == 3 {
			last := s.Y[len(s.Y)-1]
			if last < 5 {
				t.Fatalf("t=3 breakdown not visible: final ratio %v", last)
			}
		}
	}
}

func TestAllRunnersExecute(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	e := env()
	for _, r := range All() {
		f, err := r.Run(e, 42)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		if f.ID != r.ID {
			t.Fatalf("runner %s produced figure %s", r.ID, f.ID)
		}
		if len(f.Series) == 0 {
			t.Fatalf("%s produced no series", r.ID)
		}
		for _, s := range f.Series {
			if len(s.X) == 0 {
				t.Fatalf("%s: series %q empty", r.ID, s.Name)
			}
			if len(s.X) != len(s.Y) {
				t.Fatalf("%s: series %q length mismatch", r.ID, s.Name)
			}
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig05"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestRegistryRendersFig05: the registry holds every figure and
// ablation, and a real figure renders with its series in all three
// formats the figures subcommand offers.
func TestRegistryRendersFig05(t *testing.T) {
	if n := len(All()); n < 13 {
		t.Fatalf("only %d experiments registered", n)
	}
	r, err := ByID("fig05")
	if err != nil {
		t.Fatal(err)
	}
	f, err := r.Run(env(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ASCII(f, 60, 15), "RBER ISPP-SV") {
		t.Fatal("ASCII render incomplete")
	}
	if !strings.Contains(Table(f), "RBER ISPP-DV") {
		t.Fatal("table render incomplete")
	}
	if !strings.HasPrefix(CSV(f), "series,x,y\n") {
		t.Fatal("CSV render incomplete")
	}
}

func TestFigureAddSeriesValidates(t *testing.T) {
	var f Figure
	if err := f.AddSeries("bad", []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := f.AddSeries("ok", []float64{1}, []float64{2}); err != nil {
		t.Fatal(err)
	}
}

func TestFigureBounds(t *testing.T) {
	var f Figure
	if _, _, _, _, ok := f.Bounds(); ok {
		t.Fatal("empty figure claims bounds")
	}
	f.mustAdd("a", []float64{1, 5}, []float64{-2, 7})
	xmin, xmax, ymin, ymax, ok := f.Bounds()
	if !ok || xmin != 1 || xmax != 5 || ymin != -2 || ymax != 7 {
		t.Fatalf("bounds %v %v %v %v", xmin, xmax, ymin, ymax)
	}
}
