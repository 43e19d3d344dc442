package main

import (
	"strings"
	"time"

	"xlnand/internal/obs"
)

// sides are the array and obs side runs of the traced pass: short
// untraced blocks whose only output is a host-time figure for one layer.
func sides(r *run) error {
	x := r.b.Layer
	side := func(fn func(*run) error) (float64, error) {
		s := newRun(r.b.Workload, r.seed, r.prof, nil)
		if err := fn(s); err != nil {
			return 0, err
		}
		r.guard(s.b.Guard == "", "side run: %s", s.b.Guard)
		r.guard(s.b.Failed == 0, "side run: %d of %d ops failed", s.b.Failed, s.b.Ops)
		return s.b.WallS * 1e9 / float64(s.b.Ops), nil
	}
	// The compared side runs go in alternating pairs and the median of
	// the pair ratios is kept: the host's speed drifts by tens of per cent
	// over a minute, and a ratio of two runs seconds apart does not.
	pairRatio := func(num, den func(*run) error) (float64, error) {
		var ratios []float64
		for i := 0; i < r.prof.SidePairs; i++ {
			d, err := side(den)
			if err != nil {
				return 0, err
			}
			n, err := side(num)
			if err != nil {
				return 0, err
			}
			ratios = append(ratios, n/d)
		}
		return median(ratios), nil
	}
	reads := r.prof.ScaleReads
	one, err := side(func(s *run) error { return cleanReads(s, 1, reads) })
	if err != nil {
		return err
	}
	x["array.one_drive_ns_per_op"] = one
	x["array.scale64_ratio"], err = pairRatio(
		func(s *run) error { return cleanReads(s, 64, reads) },
		func(s *run) error { return cleanReads(s, 16, reads) })
	if err != nil {
		return err
	}

	// array-mixed with the program's own virtual-time tracer on and off:
	// instrumentation compiled in must cost nothing when it is off and
	// little when it is on. The last traced run's export is timed.
	var tr *obs.Tracer
	x["obs.trace_overhead_ratio"], err = pairRatio(
		func(s *run) error {
			tr = obs.NewTracer()
			return arrayMixedRun(s, r.prof.ObsOps, tr)
		},
		func(s *run) error { return arrayMixedRun(s, r.prof.ObsOps, nil) })
	if err != nil {
		return err
	}
	kept, _ := tr.Events()
	x["obs.trace_events"] = float64(kept)
	t0 := time.Now()
	js := tr.JSON()
	x["obs.export_s"] = time.Since(t0).Seconds()
	x["obs.trace_bytes"] = float64(len(js))
	return nil
}

// layerMetrics derives every per-layer metric from the traced block t
// (spans, exact counts, side runs) and the untraced block u of the same
// workload and seed. A layer the workload does not enter reads 0.
func layerMetrics(t, u block) map[string]float64 {
	m := map[string]float64{}
	for k, v := range t.Layer {
		m[k] = v
	}
	// A span named like a metric is that metric: host ns per layer call.
	for name, s := range t.Spans {
		if s.Calls > 0 {
			m[name] = float64(s.TotalNs) / float64(s.Calls)
		}
	}
	span := func(name string) float64 { return float64(t.Spans[name].TotalNs) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	m["array.drain_ns_per_round"] = ratio(span("array.drain")+span("array.drain.rebuild"), m["array.rounds"])
	m["array.flush_ns_per_page"] = ratio(span("array.flush"), m["array.flush_pages"])
	m["array.rebuild_ns_per_page"] = ratio(span("array.drain.rebuild"), m["array.rebuild_pages"])
	for _, p := range mixedPhases {
		m["array.phase_ns_per_op."+p] = ratio(span("bench.phase."+p), m["array.phase_ops."+p])
	}
	for name, s := range t.Spans {
		if sc, ok := strings.CutPrefix(name, "lifetime.run."); ok {
			m["lifetime.wall_s."+sc] = float64(s.TotalNs) / 1e9
		}
	}

	// Self time of a rung is the rung minus the rungs below it. The
	// controller skips the decode on a clean hit, so only the share of
	// its reads that decoded pays the decode rung.
	for _, st := range []string{"fresh", "eol"} {
		sense, decode := m["nand.sense_ns.bch."+st], m["bch.decode_ns."+st]
		ctrl, disp, f := m["controller.read_ns.bch."+st], m["dispatch.read_ns.bch."+st], m["ftl.read_ns.bch."+st]
		m["controller.self_read_ns."+st] = ctrl - sense - (1-m["ladder.clean_hits.bch."+st])*decode
		m["dispatch.self_read_ns."+st] = disp - ctrl
		m["ftl.self_read_ns."+st] = f - disp
	}
	m["array.self_ns_per_op"] = m["array.one_drive_ns_per_op"] - m["ftl.read_ns.bch.fresh"]
	// The self times telescope to the ftl rung, so the residual is an
	// independent untraced timing of the same reads minus that rung.
	m["bench.ladder_residual_ns"] = m["bench.ladder_e2e_ns"] - m["ftl.read_ns.bch.eol"]

	var gen int64
	for name, s := range t.Spans {
		if strings.HasPrefix(name, "bench.") {
			gen += s.SelfNs
		}
	}
	m["bench.gen_ns_per_op"] = ratio(float64(gen), float64(t.Ops))
	m["bench.trace_overhead_ratio"] = ratio(t.WallS, u.WallS)
	// What the host did to the untraced block: its time as measured, and
	// how much of it the scaling to the quiet host took away.
	m["bench.raw_wall_ops_per_s"] = ratio(float64(u.Ops), u.WallS)
	m["bench.host_slowdown"] = ratio(u.WallS, u.QuietWallS)

	// Modelled end-to-end figures that can be 0 or absent on a workload,
	// and so cannot be bounded end-to-end metrics.
	m["model.write_mb_per_s"] = ratio(float64(u.WriteBytes)/1e6, u.ModelS)
	m["model.read_p99_us"] = u.ReadP99Us
	m["model.uber"] = ratio(float64(u.LostBits), float64(u.BitsRead))
	m["model.failed_share"] = ratio(float64(u.Failed), float64(u.Ops))
	return m
}

// endToEnd is one block's end-to-end metric values. The three host
// times are the ones scaled to the quiet host (host.go).
func endToEnd(b block) map[string]float64 {
	ops := float64(b.Ops)
	return map[string]float64{
		"wall_ops_per_s":      ops / b.QuietWallS,
		"cpu_us_per_op":       b.QuietCPUS * 1e6 / ops,
		"model_iops":          ops / b.ModelS,
		"model_read_mb_per_s": float64(b.ReadBytes) / 1e6 / b.ModelS,
		"alloc_bytes_per_op":  float64(b.AllocB) / ops,
		"peak_rss_mb":         b.PeakRSSMB,
		"setup_s":             b.QuietSetupS,
	}
}

// hostTime names the end-to-end metrics that depend on the host; the
// rest are modelled and repeat exactly for a seed.
var hostTime = map[string]bool{
	"wall_ops_per_s": true, "cpu_us_per_op": true, "alloc_bytes_per_op": true,
	"peak_rss_mb": true, "setup_s": true,
}

// quietScaled names the host-time metrics that are made of slice times
// divided by the reference kernel's slowdown (host.go).
var quietScaled = map[string]bool{"wall_ops_per_s": true, "cpu_us_per_op": true, "setup_s": true}
