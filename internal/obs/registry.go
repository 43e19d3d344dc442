package obs

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a small metrics sink the layers publish snapshots into:
// counters, gauges, and latency-histogram summaries keyed by
// Prometheus-style names (optionally with inline labels, see Label).
// It follows a publish-on-snapshot model — nothing on the simulation
// hot path touches the registry; instead each layer exposes a
// PublishMetrics method that dumps its already-maintained counters at
// report time. Export order is sorted by name, so two runs of the same
// seeded scenario serialize byte-identically.
type Registry struct {
	mu       sync.Mutex
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]HistSnapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]float64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]HistSnapshot),
	}
}

// Label renders name{k="v"} for one-label series; labels are part of
// the series key, so sorting keys yields a stable export. Nesting
// (Label(Label(n, k1, v1), ...)) is not supported: series with more
// labels spell out their label block.
func Label(name, k, v string) string {
	return name + `{` + k + `="` + v + `"}`
}

// AddCounter accumulates v into the named counter (creating it at
// zero). Counters accumulate so independent publishers — e.g. every
// drive — can fold into one fleet-level series.
func (r *Registry) AddCounter(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

// SetGauge sets the named gauge.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// ObserveHist stores a histogram snapshot under the name, replacing
// any previous snapshot for the same series.
func (r *Registry) ObserveHist(name string, snap HistSnapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.hists[name] = snap
	r.mu.Unlock()
}

// family strips the label block from a series key.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// PrometheusText renders the registry in Prometheus exposition format:
// families sorted by name, one # TYPE line per family, histogram
// snapshots as summaries (quantile series plus _sum and _count).
func (r *Registry) PrometheusText() []byte {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b bytes.Buffer

	writeTyped := func(m map[string]float64, typ string) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		lastFam := ""
		for _, n := range names {
			if f := family(n); f != lastFam {
				fmt.Fprintf(&b, "# TYPE %s %s\n", f, typ)
				lastFam = f
			}
			b.WriteString(n)
			b.WriteByte(' ')
			b.WriteString(formatVal(m[n]))
			b.WriteByte('\n')
		}
	}
	writeTyped(r.counters, "counter")
	writeTyped(r.gauges, "gauge")

	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	lastFam := ""
	for _, n := range names {
		s := r.hists[n]
		f := family(n)
		if f != lastFam {
			fmt.Fprintf(&b, "# TYPE %s summary\n", f)
			lastFam = f
		}
		labels := ""
		if i := strings.IndexByte(n, '{'); i >= 0 {
			labels = strings.TrimSuffix(n[i+1:], "}")
		}
		q := func(quant string, v float64) {
			b.WriteString(f)
			b.WriteByte('{')
			if labels != "" {
				b.WriteString(labels)
				b.WriteByte(',')
			}
			b.WriteString(`quantile="` + quant + `"} `)
			b.WriteString(formatVal(v))
			b.WriteByte('\n')
		}
		q("0.5", s.P50Us)
		q("0.99", s.P99Us)
		q("0.999", s.P999Us)
		fmt.Fprintf(&b, "%s_sum%s %s\n", f, n[len(f):], formatVal(s.MeanUs*float64(s.Count)))
		fmt.Fprintf(&b, "%s_count%s %d\n", f, n[len(f):], s.Count)
	}
	return b.Bytes()
}

func formatVal(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
