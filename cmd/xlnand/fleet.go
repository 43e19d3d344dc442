package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"xlnand/internal/array"
	"xlnand/internal/lifetime"
	"xlnand/internal/obs"
)

// fleetRun is one fleet run: its command line and the exports it asks for.
type fleetRun struct {
	array, soak                      bool
	opsScale                         float64
	drives                           int
	seed                             uint64
	json                             string
	dies, blocks, stripe, cachePages int
	ops                              int
	redundancy                       string
	spares, killDrive, killRound     int
	trace, metrics                   string
	slo                              time.Duration

	tracer *obs.Tracer   // non-nil with -trace
	reg    *obs.Registry // non-nil with -metrics
}

// fleetCmd runs the fleet-scale layers: the multi-drive lifetime
// scenario (N independent drive biographies run concurrently, merged
// deterministically) and the striped array service (host cache +
// per-tenant QoS over concurrent drives).
//
//	xlnand fleet -drives 64 -json fleet.json      # lifetime fleet, archived report
//	xlnand fleet -soak -drives 32 -ops-scale 0.5  # reduced-rounds soak
//	xlnand fleet -kill-drive 2                    # drive 2 dies after phase 1
//	xlnand fleet -array -drives 8 -redundancy parity -spares 1 \
//	    -kill-drive 3 -kill-round 20 -slo 500us -trace trace.json -metrics metrics.prom
//
// Both modes are seed-reproducible: the same flags produce
// byte-identical JSON no matter how the drive goroutines interleave —
// including runs with injected drive deaths.
func fleetCmd(args []string, _ io.Reader, stdout, stderr io.Writer) error {
	var f fleetRun
	fs := newFlags("fleet", stderr)
	fs.BoolVar(&f.array, "array", false, "run the striped-array workload instead of the lifetime fleet")
	fs.BoolVar(&f.soak, "soak", false, "run the 128-drive fleet-soak scenario instead of the smoke fleet (lifetime mode only)")
	fs.Float64Var(&f.opsScale, "ops-scale", 1, "scale every biography phase's host ops by this factor (lifetime mode; <1 = reduced rounds for smokes)")
	fs.IntVar(&f.drives, "drives", 0, "number of drives in the fleet (0 keeps the scenario's count; smoke default 16)")
	fs.Uint64Var(&f.seed, "seed", 0, "override the master seed (0 keeps the default)")
	fs.StringVar(&f.json, "json", "", "write the merged report JSON to this file (- for stdout, tables to stderr)")
	fs.IntVar(&f.dies, "dies", 2, "dies per drive (array mode)")
	fs.IntVar(&f.blocks, "blocks", 8, "blocks per die (array mode)")
	fs.IntVar(&f.stripe, "stripe", 1, "stripe unit in volume pages (array mode)")
	fs.IntVar(&f.cachePages, "cache-pages", 128, "host cache capacity in volume pages, 0 disables (array mode)")
	fs.IntVar(&f.ops, "ops", 2000, "workload operations to run (array mode)")
	fs.StringVar(&f.redundancy, "redundancy", "none", "array redundancy: none, parity or mirror (array mode)")
	fs.IntVar(&f.spares, "spares", 0, "hot spares for rebuild after a drive death (array mode)")
	fs.IntVar(&f.killDrive, "kill-drive", -1, "fail-stop this drive mid-run (-1 disables)")
	fs.IntVar(&f.killRound, "kill-round", 20, "array round at which -kill-drive fires (array mode)")

	// Observability exports (virtual-time; byte-identical per seed).
	fs.StringVar(&f.trace, "trace", "", "write a Chrome trace-event JSON of the run to this file (both modes)")
	fs.StringVar(&f.metrics, "metrics", "", "write a Prometheus text metrics snapshot to this file (array mode)")
	fs.DurationVar(&f.slo, "slo", 0, "per-op latency SLO for the oltp tenant, e.g. 500us (array mode; 0 disables)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if f.metrics != "" && !f.array {
		return usageErrorf("-metrics requires -array (lifetime mode publishes no registry)")
	}
	if !(f.opsScale > 0) || math.IsInf(f.opsScale, 1) {
		return usageErrorf("-ops-scale must be positive and finite, got %g", f.opsScale)
	}
	if f.drives < 0 {
		return usageErrorf("-drives must not be negative, got %d", f.drives)
	}
	if f.ops < 0 {
		return usageErrorf("-ops must not be negative, got %d", f.ops)
	}
	if f.array && f.killDrive >= 0 && f.killRound < 1 {
		return usageErrorf("-kill-round must be at least 1 (round 0 never fires), got %d", f.killRound)
	}

	out := stdout
	if f.json == "-" {
		out = stderr
	}
	if f.trace != "" {
		f.tracer = obs.NewTracer()
	}
	if f.metrics != "" {
		f.reg = obs.NewRegistry()
	}
	run := f.runLifetime
	if f.array {
		run = f.runArray
	}
	js, err := run(out)
	if err != nil {
		return err
	}
	if f.tracer != nil {
		if err := writeFile(f.trace, f.tracer.WriteJSON); err != nil {
			return err
		}
		kept, dropped := f.tracer.Events()
		fmt.Fprintf(out, "trace: %d events (%d dropped) -> %s\n", kept, dropped, f.trace)
	}
	if f.reg != nil {
		if err := os.WriteFile(f.metrics, f.reg.PrometheusText(), 0o644); err != nil {
			return err
		}
	}
	if f.json == "" {
		return nil
	}
	return writeJSON(f.json, js, stdout)
}

// runLifetime plays the selected biography (smoke or soak) across the
// fleet and prints the merged phase table to out. -kill-drive
// fail-stops that drive after the first phase of its biography;
// -ops-scale < 1 compresses every phase's host ops (the CI smoke knob
// for the soak scenario). Narrowing a scenario below a scheduled
// fail-stop drops that fail-stop rather than failing validation.
func (f *fleetRun) runLifetime(out io.Writer) ([]byte, error) {
	fs := lifetime.FleetSmoke()
	if f.soak {
		fs = lifetime.FleetSoak()
	}
	fs.Trace = f.tracer
	if f.drives > 0 {
		fs.Drives = f.drives
		fs.FailStops = slices.DeleteFunc(fs.FailStops, func(k lifetime.FleetFailStop) bool { return k.Drive >= f.drives })
	}
	if f.seed != 0 {
		fs.Seed = f.seed
	}
	if f.opsScale != 1 {
		for i := range fs.Base.Phases {
			ops := float64(fs.Base.Phases[i].Ops) * f.opsScale
			if ops >= math.MaxInt {
				return nil, usageErrorf("-ops-scale %g overflows phase %d's %d ops", f.opsScale, i, fs.Base.Phases[i].Ops)
			}
			fs.Base.Phases[i].Ops = max(1, int(ops))
		}
	}
	if f.killDrive >= 0 {
		fs.FailStops = []lifetime.FleetFailStop{{Drive: f.killDrive, AfterPhase: 0}}
	}
	res, err := lifetime.RunFleet(fs)
	if err != nil {
		return nil, err
	}
	res.WriteTable(out)
	return res.JSON()
}

// runArray drives a striped volume with two tenants — an unthrottled
// latency-sensitive one and a token-bucket-limited scanner — through a
// skewed read/write mix, then prints the fleet summary to out. With
// -kill-drive the named drive fail-stops at -kill-round; under parity
// or mirror redundancy the run degrades and (with a spare) rebuilds
// instead of losing data.
func (f *fleetRun) runArray(out io.Writer) ([]byte, error) {
	if f.drives == 0 {
		f.drives = 16
	}
	if f.seed == 0 {
		f.seed = 42
	}
	var plan array.FaultPlan
	if f.killDrive >= 0 {
		plan.Drives = []array.DriveFault{{Drive: f.killDrive, FailStopRound: int64(f.killRound)}}
	}
	a, err := array.New(array.Config{
		Drives:       f.drives,
		DiesPerDrive: f.dies,
		BlocksPerDie: f.blocks,
		Seed:         f.seed,
		StripePages:  f.stripe,
		Redundancy:   f.redundancy,
		Spares:       f.spares,
		Faults:       plan,
		Cache:        array.CacheConfig{Pages: f.cachePages},
		Trace:        f.tracer,
		Tenants: []array.TenantConfig{
			{Name: "oltp", SLOTarget: f.slo},
			{Name: "scan", Rate: 4000, Burst: 32},
		},
	})
	if err != nil {
		return nil, err
	}
	defer a.Close()

	hot := max(1, a.VolumePages()/8)
	page := func(i int) []byte {
		data := make([]byte, a.PageBytes())
		for j := range data {
			data[j] = byte(i*131 + j*31)
		}
		return data
	}
	// Seed the hot set so the read mix below never misses on unwritten
	// pages.
	for p := 0; p < hot; p++ {
		if err := a.Submit(array.Op{Tenant: "oltp", Write: true, Page: p, Data: page(p)}); err != nil {
			return nil, err
		}
	}
	if _, err := a.Drain(); err != nil {
		return nil, err
	}

	// The measured mix: oltp re-reads and updates the hot set, scan
	// streams the same pages under its token bucket.
	state := f.seed
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for i := 0; i < f.ops; i++ {
		p := next(hot)
		var op array.Op
		switch i % 4 {
		case 0:
			op = array.Op{Tenant: "oltp", Write: true, Page: p, Data: page(p + i)}
		case 1, 2:
			op = array.Op{Tenant: "oltp", Page: p}
		default:
			op = array.Op{Tenant: "scan", Page: p}
		}
		if err := a.Submit(op); err != nil {
			return nil, err
		}
		if (i+1)%256 == 0 {
			if _, err := a.Drain(); err != nil {
				return nil, err
			}
		}
	}
	if _, err := a.Drain(); err != nil {
		return nil, err
	}
	if err := a.Flush(); err != nil {
		return nil, err
	}
	rep := a.Report()
	if f.reg != nil {
		a.PublishMetrics(f.reg)
	}
	fmt.Fprint(out, rep.Summary())
	for _, d := range rep.PerDrive {
		for _, tr := range d.Transitions {
			fmt.Fprintf(out, "  drive %d health: %s -> %s (round %d, %.6fs)\n",
				d.Drive, tr.From, tr.To, tr.Round, tr.ClockSec)
		}
	}
	return rep.JSON()
}
