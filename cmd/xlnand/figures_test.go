package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateFigures re-records the figure goldens from the code under test.
// Re-record only for a declared model change.
var updateFigures = flag.Bool("update-figures", false, "re-record testdata/figures.txt and testdata/tradeoff.txt")

// TestFiguresGolden pins every figure table and the end-of-life
// operating points: a change that moves any modelled number fails here.
func TestFiguresGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"figures.txt", []string{"figures", "-all", "-format", "table"}},
		{"tradeoff.txt", []string{"tradeoff", "-cycles", "1e6"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, strings.NewReader(""), &stdout, &stderr); code != 0 {
			t.Fatalf("xlnand %s: exit %d: %s", strings.Join(tc.args, " "), code, stderr.String())
		}
		path := filepath.Join("testdata", tc.golden)
		if *updateFigures {
			if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := stdout.String(); got != string(want) {
			t.Errorf("xlnand %s differs from %s (re-record with -update-figures only for a declared model change):\n%s",
				strings.Join(tc.args, " "), path, firstDiff(got, string(want)))
		}
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range max(len(g), len(w)) {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return ""
}
