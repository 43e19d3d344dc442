package stats

import (
	"math"
	"sort"
	"testing"
)

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("bad summary: %+v", s)
	}
	wantStd := math.Sqrt(2) // population std of 1..5
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Fatalf("std = %v, want %v", s.Std, wantStd)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("empty summary N = %d", s.N)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Summarize(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	sort.Float64s(xs)
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 50}, {0.5, 30}, {0.25, 20}, {0.75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("percentile of empty slice should be NaN")
	}
}

func TestLogSpace(t *testing.T) {
	xs := LogSpace(1e2, 1e6, 5)
	want := []float64{1e2, 1e3, 1e4, 1e5, 1e6}
	for i := range xs {
		if !approxEq(xs[i], want[i], 1e-12) {
			t.Fatalf("LogSpace[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
}

func TestLogSpacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-positive bound")
		}
	}()
	LogSpace(0, 10, 3)
}

func TestPercentileWeightedMatchesExpansion(t *testing.T) {
	vals := []float64{1, 3, 7, 20, 100}
	weights := []uint64{3, 1, 5, 2, 4}
	var expanded []float64
	for i, v := range vals {
		for k := uint64(0); k < weights[i]; k++ {
			expanded = append(expanded, v)
		}
	}
	for q := 0.0; q <= 1.0; q += 0.01 {
		got := PercentileWeighted(vals, weights, q)
		want := Percentile(expanded, q)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("q=%.2f: weighted %v vs expanded %v", q, got, want)
		}
	}
}

// TestPercentileWeightedUnitWeights pins that nil weights reproduce
// Percentile exactly — they share one implementation by construction,
// but this guards the delegation.
func TestPercentileWeightedUnitWeights(t *testing.T) {
	sorted := []float64{2, 4, 8, 16, 32, 64}
	unit := []uint64{1, 1, 1, 1, 1, 1}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		a := Percentile(sorted, q)
		b := PercentileWeighted(sorted, nil, q)
		c := PercentileWeighted(sorted, unit, q)
		if a != b || a != c {
			t.Fatalf("q=%v: %v / %v / %v diverge", q, a, b, c)
		}
	}
}

func TestPercentileWeightedEmpty(t *testing.T) {
	if !math.IsNaN(PercentileWeighted(nil, nil, 0.5)) {
		t.Fatal("empty weighted percentile not NaN")
	}
	if !math.IsNaN(PercentileWeighted([]float64{1, 2}, []uint64{0, 0}, 0.5)) {
		t.Fatal("zero-weight percentile not NaN")
	}
}
