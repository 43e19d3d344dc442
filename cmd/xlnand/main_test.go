package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun runs every subcommand in-process with small arguments and
// checks the exit code; with -json -, stdout must be exactly one JSON
// document and the tables must go to stderr.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.csv")
	for _, tc := range []struct {
		args []string
		code int
		json bool
	}{
		{args: []string{"figures", "-list"}},
		{args: []string{"figures", "-fig", "fig05", "-format", "csv", "-out", dir}},
		{args: []string{"tradeoff", "-cycles", "1e4", "-stride", "16"}},
		{args: []string{"lifetime", "-list"}},
		{args: []string{"lifetime", "-shortest", "-json", "-"}, json: true},
		{args: []string{"fleet", "-drives", "2", "-json", "-"}, json: true},
		{args: []string{"fleet", "-array", "-drives", "2", "-ops", "64", "-json", "-",
			"-trace", filepath.Join(dir, "fleet.json"), "-metrics", filepath.Join(dir, "fleet.prom")}, json: true},
		{args: []string{"trace", "-ops", "32", "-record", tracePath}},
		{args: []string{"trace", "-replay", tracePath, "-dies", "2", "-mode", "max-read"}},
		{args: []string{"bch", "roundtrip", "-t", "8", "-errors", "8"}},

		{args: nil, code: 2},
		{args: []string{"nope"}, code: 2},
		{args: []string{"figures", "-bogus"}, code: 2},
		{args: []string{"figures"}, code: 2},
		{args: []string{"bch", "nope"}, code: 2},
		{args: []string{"bch", "corrupt", "-errors", "-3"}, code: 2},
		{args: []string{"bch", "roundtrip", "-errors", "-3"}, code: 2},
		{args: []string{"bch", "corrupt", "-errors", "40000"}, code: 2},
		{args: []string{"bch", "roundtrip", "-t", "8", "-errors", "40000"}, code: 2},
		{args: []string{"bch", "encode", "-t", "2"}, code: 2},
		{args: []string{"bch", "roundtrip", "-t", "66"}, code: 2},
		{args: []string{"fleet", "-metrics", filepath.Join(dir, "m.prom")}, code: 2},
		{args: []string{"fleet", "-array", "-kill-drive", "1", "-kill-round", "0"}, code: 2},
		{args: []string{"fleet", "-drives", "-3"}, code: 2},
		{args: []string{"fleet", "-ops-scale", "NaN"}, code: 2},
		{args: []string{"fleet", "-ops-scale", "Inf"}, code: 2},
		{args: []string{"fleet", "-ops-scale", "1e300"}, code: 2},
		{args: []string{"fleet", "-array", "-ops", "-5"}, code: 2},
		{args: []string{"tradeoff", "-cycles", "NaN"}, code: 1},
		{args: []string{"tradeoff", "-cycles", "-5"}, code: 1},
		{args: []string{"tradeoff", "-cycles", "Inf"}, code: 1},
		{args: []string{"figures", "-fig", "nope"}, code: 1},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, strings.NewReader(""), &stdout, &stderr)
		if code != tc.code {
			t.Errorf("xlnand %s: exit %d, want %d; stderr:\n%s", strings.Join(tc.args, " "), code, tc.code, stderr.String())
			continue
		}
		if !tc.json {
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
			t.Errorf("xlnand %s: stdout is not one JSON document: %v\n%.200s", strings.Join(tc.args, " "), err, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("xlnand %s: no table on stderr", strings.Join(tc.args, " "))
		}
	}
}

// TestDocumentedCommandsParse runs every "go run ./cmd/xlnand" command
// line of the README and the CI workflow in-process with -h appended: a
// command line naming a removed subcommand or flag exits 2, so a stale
// document fails here. Continuation lines are joined, and comments and
// shell redirections are dropped.
func TestDocumentedCommandsParse(t *testing.T) {
	const prefix = "go run ./cmd/xlnand"
	var lines []string
	for _, doc := range []string{"../../README.md", "../../.github/workflows/ci.yml"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.ReplaceAll(string(text), "\\\n", " ")
		for _, line := range strings.Split(joined, "\n") {
			if _, cmd, ok := strings.Cut(line, prefix); ok {
				lines = append(lines, cmd)
			}
		}
	}
	if len(lines) < 20 {
		t.Fatalf("found %d documented command lines, want at least 20", len(lines))
	}
	for _, line := range lines {
		var args []string
		for _, field := range strings.Fields(line) {
			if strings.ContainsAny(field[:1], "#<>|;&") {
				break
			}
			args = append(args, field)
		}
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-h"), strings.NewReader(""), &stdout, &stderr); code != 0 {
			t.Errorf("%s%s: exit %d with -h; stderr:\n%s", prefix, line, code, stderr.String())
		}
	}
}

// TestTraceMultiDieReproducible: a four-die mixed replay submits batches
// that span dies, which book the shared bus and codec in request order,
// so two runs print the same bytes.
func TestTraceMultiDieReproducible(t *testing.T) {
	args := []string{"trace", "-dies", "4", "-profile", "mixed"}
	var outs [2]string
	for i := range outs {
		var stdout, stderr bytes.Buffer
		if code := run(args, strings.NewReader(""), &stdout, &stderr); code != 0 {
			t.Fatalf("xlnand %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
		}
		outs[i] = stdout.String()
	}
	if outs[0] != outs[1] {
		t.Fatalf("two runs differ:\n%s\n---\n%s", outs[0], outs[1])
	}
}

// TestBCHPipeline pipes encode | corrupt | decode through in-memory
// buffers: the output is the input zero-padded to whole pages.
func TestBCHPipeline(t *testing.T) {
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	stage := func(in []byte, args ...string) []byte {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"bch"}, args...), bytes.NewReader(in), &stdout, &stderr); code != 0 {
			t.Fatalf("bch %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
		}
		return stdout.Bytes()
	}
	cw := stage(data, "encode", "-t", "12")
	dirty := stage(cw, "corrupt", "-t", "12", "-errors", "12", "-seed", "3")
	if bytes.Equal(dirty, cw) {
		t.Fatal("corrupt flipped no bits")
	}
	got := stage(dirty, "decode", "-t", "12")
	want := append(data, make([]byte, 2*4096-len(data))...)
	if !bytes.Equal(got, want) {
		t.Fatalf("decode returned %d bytes, not the %d-byte zero-padded input", len(got), len(want))
	}
}
