package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// quartiles are Python's statistics.quantiles(v, n=4): the first and
// third quartile by the exclusive method, the one the driver uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// side is one side of a comparison: the runs of one metric.
type side struct {
	runs        []float64
	med, spread float64 // spread is (q3-q1)/median
}

func newSide(runs []float64) side {
	q1, q3 := quartiles(runs)
	m := median(runs)
	return side{runs, m, math.Abs((q3 - q1) / m)}
}

// worsening is how much worse b's median is than a's, as a share of
// a's: positive is worse, whichever direction is better.
func worsening(m metricSpec, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// beats reports whether every run of x reads better than every run of y.
func beats(m metricSpec, x, y []float64) bool {
	for _, xv := range x {
		for _, yv := range y {
			if worsening(m, yv, xv) >= 0 {
				return false
			}
		}
	}
	return true
}

// verdict judges b against a by the metric's bound and the spread rule:
// where either side's spread is wider than the bound the metric is
// unresolved, unless every run of one side beats every run of the other.
func verdict(m metricSpec, a, b side) string {
	w := worsening(m, a.med, b.med)
	if math.Max(a.spread, b.spread) > m.Bound {
		switch {
		case beats(m, b.runs, a.runs):
			return "better"
		case beats(m, a.runs, b.runs) && w > m.Bound:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case w > m.Bound:
		return "worse"
	case w < -m.Bound:
		return "better"
	}
	return "same"
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareFiles(sp *spec, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a = %s (commit %s)   b = %s (commit %s)\n", pathA, a.Meta.Commit, pathB, b.Meta.Commit)
	if worse := compareResults(sp, a, b); worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}

// compareResults prints, per workload and end-to-end metric, both sides'
// median and quartile spread, b's worsening against a with its base, and
// the verdict. It returns how many verdicts were "worse". A changed
// model_digest is flagged: the change moved the model and must say so.
func compareResults(sp *spec, a, b *result) (worse int) {
	for _, sa := range a.Workloads {
		var sb *set
		for _, s := range b.Workloads {
			if s.Workload == sa.Workload {
				sb = s
			}
		}
		if sb == nil {
			continue
		}
		fmt.Printf("== %s\n", sa.Workload)
		if sa.Digest != sb.Digest && a.Meta.Seed == b.Meta.Seed && a.Meta.Profile == b.Meta.Profile {
			fmt.Printf("   MODEL CHANGE: model_digest %.12s -> %.12s\n", sa.Digest, sb.Digest)
		}
		fmt.Printf("   %-22s %14s %8s %14s %8s %22s  %s\n", "metric", "a median", "a iqr", "b median", "b iqr", "b worse by (of a)", "verdict")
		for _, m := range sp.EndToEnd {
			x, y := newSide(column(sa.Runs, m.Name)), newSide(column(sb.Runs, m.Name))
			v := verdict(m, x, y)
			if v == "worse" {
				worse++
			}
			fmt.Printf("   %-22s %14.6g %7.2f%% %14.6g %7.2f%% %+9.2f%% of %-10.4g  %s (bound %.0f%%)\n",
				m.Name, x.med, 100*x.spread, y.med, 100*y.spread, 100*worsening(m, x.med, y.med), x.med, v, 100*m.Bound)
		}
	}
	return worse
}

// selfCheck runs every workload twice with one binary and holds the two
// sets to the benchmark's own rules: modelled metrics and model_digest
// identical, host-time medians inside their bounds. It prints the noise
// band seen and writes both sets next to out.
func selfCheck(sp *spec, o options, out string) error {
	var sets [2]*result
	for i := range sets {
		fmt.Printf("---- set %d\n", i+1)
		r, err := runAll(sp, o, i == 0) // the first set also makes the traced pass
		if err != nil {
			return err
		}
		sets[i] = r
	}
	fmt.Println("---- set 2 against set 1")
	bad := compareResults(sp, sets[0], sets[1])
	for i, sa := range sets[0].Workloads {
		sb := sets[1].Workloads[i]
		if !sa.Correct || !sb.Correct {
			fmt.Printf("%s: NOT CORRECT: %s%s\n", sa.Workload, sa.Why, sb.Why)
			bad++
		}
		if sa.Digest != sb.Digest {
			fmt.Printf("%s: model_digest differs between the sets\n", sa.Workload)
			bad++
		}
		for _, m := range sp.EndToEnd {
			if !hostTime[m.Name] && sa.Median[m.Name] != sb.Median[m.Name] {
				fmt.Printf("%s: modelled metric %s differs between the sets: %v vs %v\n", sa.Workload, m.Name, sa.Median[m.Name], sb.Median[m.Name])
				bad++
			}
		}
	}
	fmt.Println("---- noise band (quartile spread of the blocks of a set, as a share of the median; the wider set)")
	for i, sa := range sets[0].Workloads {
		fmt.Printf("%-14s", sa.Workload)
		for _, m := range sp.EndToEnd {
			if hostTime[m.Name] {
				x, y := newSide(column(sa.Runs, m.Name)), newSide(column(sets[1].Workloads[i].Runs, m.Name))
				fmt.Printf("  %s %.2f%%", m.Name, 100*math.Max(x.spread, y.spread))
			}
		}
		fmt.Println()
	}
	if err := writeJSON(out, struct {
		Sets [2]*result `json:"selfcheck_sets"`
	}{sets}); err != nil {
		return err
	}
	fmt.Println("both sets written to", out)
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d check(s) failed", bad)
	}
	fmt.Println("selfcheck: ok")
	return nil
}
