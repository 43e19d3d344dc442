package xlnand

import (
	"bytes"
	"strings"
	"testing"
)

// TestWithTraceDeterministic pins the root observability contract: a
// traced sub-system exports byte-identical trace JSON and metrics text
// across identical seeded runs, and the exports carry the expected
// span names and series families.
func TestWithTraceDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		tr := NewTracer()
		sys, err := Open(WithBlocks(2), WithDies(2), WithSeed(5), WithTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		data := pageOf(3, sys.PageSize())
		for p := 0; p < 4; p++ {
			if _, err := writePage(sys, 0, p, data); err != nil {
				t.Fatal(err)
			}
			if _, err := readPage(sys, 0, p); err != nil {
				t.Fatal(err)
			}
		}
		reg := NewRegistry()
		sys.PublishMetrics(reg)
		return tr.JSON(), reg.PrometheusText()
	}
	j1, m1 := run()
	j2, m2 := run()
	if !bytes.Equal(j1, j2) {
		t.Fatal("trace exports diverged between identical runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("metrics exports diverged between identical runs")
	}
	for _, want := range []string{`"sense"`, `"decode"`, `"program"`, `"subsystem"`} {
		if !strings.Contains(string(j1), want) {
			t.Errorf("trace missing %s", want)
		}
	}
	for _, want := range []string{"nand_clean_reads_total", "dispatch_vtime_seconds"} {
		if !strings.Contains(string(m1), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
