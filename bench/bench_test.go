package main

import (
	"math"
	"regexp"
	"sync"
	"testing"
)

// quickBlock runs one block of the quick profile in this process; the
// traced pass of array-mixed also walks the ladder and the side runs, as
// a traced child does.
func quickBlock(t *testing.T, workload string, seed uint64, traced bool) block {
	t.Helper()
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	r := newRun(workload, seed, profiles["quick"], rec)
	if err := workloads[workload](r); err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if traced && workload == "array-mixed" {
		if err := ladder(r); err != nil {
			t.Fatal(err)
		}
		if err := sides(r); err != nil {
			t.Fatal(err)
		}
	}
	b := r.finish()
	if b.Failed != 0 {
		t.Errorf("%s seed %d: %d of %d ops failed", workload, seed, b.Failed, b.Ops)
	}
	return b
}

func TestSpecWithinTheContract(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sp.Workloads); n != len(workloads) || n > 4 {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program, at most 4 wanted", n, len(workloads))
	}
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, at most 16 and 128 wanted", len(sp.EndToEnd), len(sp.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range sp.Workloads {
		check(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %+v is outside the contract", m)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestQuickRuns is the whole benchmark at ~1/200 size: every name of
// BENCHMARK.json is produced, the same seed repeats every modelled
// number, another seed does not.
func TestQuickRuns(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	produced := map[string]bool{}
	// The workloads run side by side: most of a quick block is one
	// goroutine's work.
	t.Run("workloads", func(t *testing.T) {
		for _, w := range sp.Workloads {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				quickWorkload(t, sp, w.Name, func(name string) {
					mu.Lock()
					produced[name] = true
					mu.Unlock()
				})
			})
		}
	})

	// Counters that are legitimately 0 on every quick run: the one quick
	// life (mission-critical) loses no bit, never retries, goes soft,
	// scrubs or collects, and no tenant breaches its SLO.
	zero := map[string]bool{"model.uber": true, "model.failed_share": true, "array.slo_breaches": true,
		"controller.soft_reads": true, "controller.retry_reads": true, "lifetime.lost_bits": true,
		"lifetime.soft_senses": true, "lifetime.retries": true, "lifetime.pages_scrubbed": true, "lifetime.gc_moves": true}
	for _, m := range sp.PerLayer {
		if !produced[m.Name] && !zero[m.Name] && !lifetimeOnlyInDefault(m.Name) {
			t.Errorf("per-layer metric %s is listed in BENCHMARK.json but no quick run produced it", m.Name)
		}
	}
}

// quickWorkload runs one workload three times at quick size (seed 1
// untraced and traced, seed 2) and reports every per-layer name that
// came out non-zero.
func quickWorkload(t *testing.T, sp *spec, workload string, produced func(name string)) {
	a := quickBlock(t, workload, 1, false)
	b := quickBlock(t, workload, 1, true)
	c := quickBlock(t, workload, 2, false)
	if a.Guard != "" || b.Guard != "" || c.Guard != "" {
		t.Errorf("%s: regime guards: %q %q %q", workload, a.Guard, b.Guard, c.Guard)
	}
	if a.Digest != b.Digest {
		t.Errorf("%s: seed 1 gave model_digest %s untraced and %s traced", workload, a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Errorf("%s: seeds 1 and 2 gave the same model_digest", workload)
	}
	ea, eb := endToEnd(a), endToEnd(b)
	for _, m := range sp.EndToEnd {
		v, ok := ea[m.Name]
		if !ok || !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s: end-to-end metric %s = %v, want a positive number", workload, m.Name, v)
		}
		if !hostTime[m.Name] && v != eb[m.Name] {
			t.Errorf("%s: modelled metric %s differs between two runs of seed 1: %v vs %v", workload, m.Name, v, eb[m.Name])
		}
	}
	if len(ea) != len(sp.EndToEnd) {
		t.Errorf("%s: the program computes %d end-to-end metrics, BENCHMARK.json lists %d", workload, len(ea), len(sp.EndToEnd))
	}
	layer := layerMetrics(b, a)
	for name, v := range layer {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: per-layer metric %s = %v", workload, name, v)
		}
		if v != 0 {
			produced(name)
		}
	}
	out := (&set{Layer: layer}).outcome(sp)
	if len(out.Metrics) != len(sp.PerLayer) {
		t.Errorf("%s: %d per-layer metrics emitted, %d listed", workload, len(out.Metrics), len(sp.PerLayer))
	}
}

// lifetimeOnlyInDefault names the per-scenario wall times of the lives
// the quick biography leaves out.
func lifetimeOnlyInDefault(name string) bool {
	for _, sc := range profiles["default"].Biography {
		if name == "lifetime.wall_s."+sc && sc != "mission-critical" {
			return true
		}
	}
	return false
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	if q1, q3 := quartiles([]float64{10, 20, 40}); q1 != 10 || q3 != 40 {
		t.Errorf("quartiles of three = %v, %v, want 10, 40", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	up := metricSpec{Name: "ops", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{100, 101, 102}, []float64{100, 102, 103}, "same"},
		{[]float64{100, 101, 102}, []float64{80, 81, 82}, "worse"},
		{[]float64{100, 101, 102}, []float64{120, 121, 122}, "better"},
		{[]float64{70, 100, 130}, []float64{60, 95, 125}, "unresolved"}, // spread wider than the bound
		{[]float64{70, 100, 130}, []float64{140, 150, 190}, "better"},   // wide, but every run wins
	} {
		if got := verdict(up, newSide(tc.a), newSide(tc.b)); got != tc.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", tc.a, tc.b, got, tc.want)
		}
	}
}
