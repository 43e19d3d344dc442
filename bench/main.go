// Command bench is the repository's benchmark: four workloads driven
// through the public functions of the stack, reporting host time and
// modelled time as separately named metrics, with a traced pass that
// attributes host time to layers from outside. BENCHMARK.json at the
// repository root names every metric; README.md here explains them.
//
//	go run -C bench . --workload array-clean --seed 1 --seconds 15 --trace 0
//	go run -C bench . -seed 1            # every workload, writes out/result.json
//	go run -C bench . -compare a.json b.json
//	go run -C bench . -selfcheck
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// spec mirrors BENCHMARK.json, the one place metric names, units,
// directions and bounds are written down.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json from the benchmark's directory or the
// repository root.
func loadSpec() (*spec, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of a driver run.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// failedShareLimit is where failed ops stop being the modelled device
// losing data and become a wrong program: the model's own UBER target
// allows about 3 failed page reads in 10^7.
const failedShareLimit = 1e-5

// minBlocks is the fewest blocks a run measures, so that host-time
// medians are medians.
const minBlocks = 3

type options struct {
	seed    uint64
	seconds float64
	prof    profile
}

// child runs one block in a fresh process: clean GC state, its own peak
// RSS, cold codec tables, so that set-up is paid and seen every time.
func child(workload string, o options, traced bool) (block, error) {
	exe, err := os.Executable()
	if err != nil {
		return block{}, err
	}
	args := []string{"-child", "-workload", workload, "-seed", fmt.Sprint(o.seed)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if o.prof.Name == "quick" {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return block{}, fmt.Errorf("%s block: %w", workload, err)
	}
	var b block
	if err := json.Unmarshal(bytes.TrimSpace(out), &b); err != nil {
		return block{}, fmt.Errorf("%s block: bad output: %w", workload, err)
	}
	return b, nil
}

// childMain is the other side of child.
func childMain(workload string, o options, traced bool) error {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	r := newRun(workload, o.seed, o.prof, rec)
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if traced {
		if err := ladder(r); err != nil {
			return err
		}
		if err := sides(r); err != nil {
			return err
		}
		if err := rec.write("out", workload, o.seed); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(r.finish())
}

// set is the blocks of one workload run and what was concluded from
// them.
type set struct {
	Workload  string               `json:"workload"`
	Digest    string               `json:"model_digest"`
	Correct   bool                 `json:"correct"`
	Why       string               `json:"why_not_correct,omitempty"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Slowdown  []float64            `json:"host_slowdown"` // measured ÷ scaled wall time, one a block
	Runs      []map[string]float64 `json:"runs"`          // end-to-end values, one map a block
	Median    map[string]float64   `json:"median"`        // over Runs
	Layer     map[string]float64   `json:"per_layer,omitempty"`
}

// measure runs untraced blocks of one workload until o.seconds of
// measured time have passed, at least minBlocks of them.
func measure(workload string, o options) (*set, error) {
	s := &set{Workload: workload, Correct: true}
	var measured float64
	for n := 0; n < minBlocks || measured < o.seconds; n++ {
		b, err := child(workload, o, false)
		if err != nil {
			return nil, err
		}
		measured += b.WallS
		s.add(b)
	}
	s.conclude()
	return s, nil
}

func (s *set) add(b block) {
	s.Attempted += b.Ops
	s.Failed += b.Failed
	s.Runs = append(s.Runs, endToEnd(b))
	s.Slowdown = append(s.Slowdown, b.WallS/b.QuietWallS)
	switch {
	case b.Guard != "":
		s.fail(b.Guard)
	case s.Digest != "" && s.Digest != b.Digest:
		s.fail("model_digest differs between blocks of one seed: the model is not deterministic")
	}
	s.Digest = b.Digest
}

func (s *set) fail(why string) {
	if s.Correct {
		s.Correct, s.Why = false, why
	}
}

func (s *set) conclude() {
	if float64(s.Failed) > failedShareLimit*float64(s.Attempted) {
		s.fail(fmt.Sprintf("%d of %d ops failed", s.Failed, s.Attempted))
	}
	s.Median = map[string]float64{}
	for name := range s.Runs[0] {
		s.Median[name] = median(column(s.Runs, name))
	}
}

// traced runs one traced block (which also walks the ladder and the
// side runs) between two untraced blocks to set it against: the host's
// speed drifts, and the mean of the blocks either side of the traced one
// is the fairest untraced wall time to compare it with.
func traced(workload string, o options) (*set, error) {
	s := &set{Workload: workload, Correct: true}
	var blocks [3]block
	for i := range blocks {
		b, err := child(workload, o, i == 1)
		if err != nil {
			return nil, err
		}
		blocks[i] = b
	}
	u, t, u2 := blocks[0], blocks[1], blocks[2]
	s.add(u)
	s.add(u2)
	if t.Digest != u.Digest {
		s.fail("the traced block's model_digest differs from the untraced one")
	}
	if t.Guard != "" {
		s.fail(t.Guard)
	}
	s.conclude()
	u.WallS = (u.WallS + u2.WallS) / 2
	u.QuietWallS = (u.QuietWallS + u2.QuietWallS) / 2
	s.Layer = layerMetrics(t, u)
	return s, nil
}

func column(runs []map[string]float64, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r[name]
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// metrics is what a set reports: the per-layer metrics after a traced
// pass, the end-to-end ones otherwise.
func (s *set) metrics(sp *spec) ([]metricSpec, map[string]float64) {
	if s.Layer != nil {
		return sp.PerLayer, s.Layer
	}
	return sp.EndToEnd, s.Median
}

// print lists every metric of a set by name with its unit.
func (s *set) print(sp *spec, o options) {
	fmt.Printf("== %s  seed %d  profile %s  blocks %d  host slowdown x%.2f  model_digest %s\n",
		s.Workload, o.seed, o.prof.Name, len(s.Runs), median(s.Slowdown), s.Digest)
	specs, values := s.metrics(sp)
	for _, m := range specs {
		note := ""
		if s.Layer == nil {
			note = "  (modelled, " + m.Better + " is better)"
			if hostTime[m.Name] {
				note = "  (host, " + m.Better + " is better)"
			}
			if quietScaled[m.Name] {
				note = "  (host time scaled to the quiet host, " + m.Better + " is better)"
			}
		}
		fmt.Printf("%-34s %16.6g %s%s\n", m.Name, values[m.Name], m.Unit, note)
	}
	if !s.Correct {
		fmt.Printf("NOT CORRECT: %s\n", s.Why)
	}
}

func (s *set) outcome(sp *spec) outcome {
	out := outcome{Correct: s.Correct, Attempted: s.Attempted, Failed: s.Failed, Metrics: map[string]value{}}
	specs, values := s.metrics(sp)
	for _, m := range specs {
		out.Metrics[m.Name] = value{values[m.Name], m.Unit}
	}
	return out
}

// result is the file the all-workloads run writes and -compare reads.
type result struct {
	Meta struct {
		Commit   string  `json:"commit"`
		GoVer    string  `json:"go_version"`
		NProc    int     `json:"nproc"`
		CPU      string  `json:"cpu_model"`
		Profile  string  `json:"profile"`
		Seed     uint64  `json:"seed"`
		Seconds  float64 `json:"seconds"`
		UnixTime int64   `json:"unix_time"`
	} `json:"meta"`
	Workloads []*set `json:"workloads"`
}

// runAll measures every workload of the spec, untraced, and with
// withTrace the traced pass after it.
func runAll(sp *spec, o options, withTrace bool) (*result, error) {
	res := &result{}
	res.Meta.Commit = commit()
	res.Meta.GoVer = runtime.Version()
	res.Meta.NProc = runtime.NumCPU()
	res.Meta.CPU = cpuModel()
	res.Meta.Profile, res.Meta.Seed, res.Meta.Seconds = o.prof.Name, o.seed, o.seconds
	res.Meta.UnixTime = time.Now().Unix()
	for _, w := range sp.Workloads {
		s, err := measure(w.Name, o)
		if err != nil {
			return nil, err
		}
		s.print(sp, o)
		if withTrace {
			t, err := traced(w.Name, o)
			if err != nil {
				return nil, err
			}
			t.print(sp, o)
			s.Layer = t.Layer
			if !t.Correct {
				s.fail(t.Why)
			}
		}
		res.Workloads = append(res.Workloads, s)
	}
	return res, nil
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // a checkout that is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all of them)")
		seed      = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1: the traced pass and the per-layer metrics; 0: the end-to-end metrics")
		quick     = flag.Bool("quick", false, "the ~1/200 profile the tests use")
		compare   = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and check the two sets against the bounds")
		out       = flag.String("out", filepath.Join("out", "result.json"), "where the all-workloads run and -selfcheck write their result")
		isChild   = flag.Bool("child", false, "internal: run one block and print it")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, prof: profiles["default"]}
	if *quick {
		o.prof = profiles["quick"]
	}
	err := func() error {
		if *isChild {
			return childMain(*workload, o, *trace == 1)
		}
		sp, err := loadSpec()
		if err != nil {
			return err
		}
		if o.seconds == 0 {
			o.seconds = float64(sp.RunSeconds)
		}
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return errors.New("-compare needs two result files")
			}
			return compareFiles(sp, flag.Arg(0), flag.Arg(1))
		case *selfcheck:
			return selfCheck(sp, o, *out)
		case *workload == "":
			res, err := runAll(sp, o, *trace == 1)
			if err != nil {
				return err
			}
			fmt.Println("result written to", *out)
			return writeJSON(*out, res)
		}
		return driverRun(sp, *workload, o, *trace == 1)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// driverRun is the contract's single-workload run: every metric by name
// with its unit, then the JSON line.
func driverRun(sp *spec, workload string, o options, withTrace bool) error {
	fn := measure
	if withTrace {
		fn = traced
	}
	s, err := fn(workload, o)
	if err != nil {
		return err
	}
	s.print(sp, o)
	line, err := json.Marshal(s.outcome(sp))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
