package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func buildRegistry() *Registry {
	r := NewRegistry()
	r.AddCounter(Label("drive_reads_total", "drive", "1"), 10)
	r.AddCounter(Label("drive_reads_total", "drive", "0"), 7)
	r.AddCounter(Label("drive_reads_total", "drive", "0"), 3) // accumulates to 10
	r.AddCounter("fleet_rounds_total", 42)
	r.SetGauge("fleet_vtime_seconds", 1.5)
	var h LatencyHist
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	r.ObserveHist(`op_latency_us{class="clean_read",drive="0"}`, h.Snapshot())
	return r
}

func TestRegistryPrometheusStable(t *testing.T) {
	a := buildRegistry().PrometheusText()
	b := buildRegistry().PrometheusText()
	if !bytes.Equal(a, b) {
		t.Fatalf("prometheus export not stable:\n%s\nvs\n%s", a, b)
	}
	text := string(a)
	for _, want := range []string{
		"# TYPE drive_reads_total counter",
		`drive_reads_total{drive="0"} 10`,
		`drive_reads_total{drive="1"} 10`,
		"# TYPE fleet_vtime_seconds gauge",
		"# TYPE op_latency_us summary",
		`op_latency_us{class="clean_read",drive="0",quantile="0.5"}`,
		`op_latency_us_count{class="clean_read",drive="0"} 100`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// Sorted: drive 0 series before drive 1.
	if strings.Index(text, `drive="0"`) > strings.Index(text, `drive="1"`) {
		t.Error("series not sorted by name")
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.AddCounter("x", 1)
	r.SetGauge("y", 2)
	r.ObserveHist("z", HistSnapshot{})
	if r.PrometheusText() != nil {
		t.Fatal("nil registry rendered text")
	}
}
