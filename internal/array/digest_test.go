package array

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// updateDigests re-records testdata/digests.json from the code under
// test. The committed file was recorded at the commit before the two
// round executors were merged; re-record only for a declared model
// change.
var updateDigests = flag.Bool("update-digests", false, "re-record testdata/digests.json")

const digestFile = "testdata/digests.json"

// digestPair is one scenario's fingerprint: full hashes the fleet report
// JSON plus the ordered result stream; masked hashes the same with the
// fields a degraded read's accounting feeds removed (result latency,
// tenant latency/SLO blocks, the degraded-read histogram and the
// reconstructed-byte counters), so "only the degraded-read accounting
// moved" is a checkable statement.
type digestPair struct {
	Full   string `json:"full"`
	Masked string `json:"masked"`
}

var (
	digestModes  = []string{RedundancyNone, RedundancyMirror, RedundancyParity}
	digestFaults = []string{"failstop", "dead", "storm", "throttled", "uber"}
)

// digestConfig builds one cell of the mode × cache × fault matrix on
// the small four-drive test fleet: the four fault-test scenarios with a
// hot spare standing by, plus a fail-stop with none ("dead"), which
// keeps the slot degraded to the end. Eight ops a round stretch the
// degraded and rebuild windows over many rounds.
func digestConfig(mode string, cache bool, fault string) Config {
	cfg := testConfig(4)
	cfg.Seed = 20120312
	cfg.Redundancy = mode
	cfg.Spares = 1
	cfg.RoundOps = 8
	cfg.Tenants = []TenantConfig{{Name: "scan", Rate: 4000, Burst: 16}, {Name: "oltp"}}
	if cache {
		cfg.Cache = CacheConfig{Pages: 16}
	}
	switch fault {
	case "failstop":
		cfg.Faults = FaultPlan{Seed: 77, Drives: []DriveFault{{Drive: 2, FailStopRound: 20}}}
	case "dead":
		cfg.Spares = 0
		cfg.Faults = FaultPlan{Seed: 77, Drives: []DriveFault{{Drive: 2, FailStopRound: 20}}}
	case "storm":
		cfg.Faults = FaultPlan{Seed: 77, Drives: []DriveFault{{Drive: 2, TransientErrRate: 0.45, LatencyFactor: 3}}}
	case "throttled":
		cfg.RebuildRate = 50
		cfg.Faults = FaultPlan{Seed: 77, Drives: []DriveFault{{Drive: 2, FailStopRound: 20}}}
	case "uber":
		cfg.Faults = FaultPlan{Seed: 77, Drives: []DriveFault{
			{Drive: 2, TransientErrRate: 0.6, UBERCeiling: 0.05, MinReads: 16}}}
	}
	return cfg
}

// errClass folds a result error onto its typed class.
func errClass(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, ErrDriveDead):
		return 1
	case errors.Is(err, ErrDriveFault):
		return 2
	}
	return 3
}

// digestRun drives one scenario: a fill, six mixed windows (overwrites,
// reads with and without caller buffers, read-after-write inside a
// window, reads of never-written pages), a flush and a full read-back.
func digestRun(t *testing.T, cfg Config) digestPair {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var full, masked strings.Builder
	drain := func() {
		for _, r := range mustDrain(t, a) {
			sum := sha256.Sum256(r.Data)
			fmt.Fprintf(&full, "%s/%v/%d/%d/%v/%d/%d/%x;", r.Tenant, r.Write, r.Page, r.Drive, r.CacheHit, r.Latency, errClass(r.Err), sum[:6])
			fmt.Fprintf(&masked, "%s/%v/%d/%d/%v/%d/%x;", r.Tenant, r.Write, r.Page, r.Drive, r.CacheHit, errClass(r.Err), sum[:6])
		}
	}
	submit := func(op Op) {
		if err := a.Submit(op); err != nil {
			t.Fatal(err)
		}
	}
	const filled, span = 120, 160
	for p := 0; p < filled; p++ {
		submit(Op{Tenant: "oltp", Write: true, Page: p, Data: pagePattern(a, p, 0)})
	}
	drain()
	state := uint64(0x5eed5eed)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	bufs := make([][]byte, 120)
	for i := range bufs {
		bufs[i] = make([]byte, a.PageBytes())
	}
	for win := 1; win <= 6; win++ {
		for i := 0; i < len(bufs); i++ {
			tenant := "oltp"
			if i%4 == 3 {
				tenant = "scan"
			}
			page := next(span)
			switch {
			case next(10) < 4:
				submit(Op{Tenant: tenant, Write: true, Page: page, Data: pagePattern(a, page, win)})
				if next(4) == 0 { // read-after-write inside the window
					submit(Op{Tenant: tenant, Page: page, Buf: bufs[i]})
				}
			case i%2 == 1:
				submit(Op{Tenant: tenant, Page: page, Buf: bufs[i]})
			default:
				submit(Op{Tenant: tenant, Page: page})
			}
		}
		drain()
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < filled; p++ {
		submit(Op{Tenant: "oltp", Page: p, Buf: bufs[p%len(bufs)]})
		if p%len(bufs) == len(bufs)-1 {
			drain()
		}
	}
	drain()

	js, err := a.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(js, &rep); err != nil {
		t.Fatal(err)
	}
	if lat, ok := rep["latency"].(map[string]any); ok {
		delete(lat, "degraded_read")
	}
	if tot, ok := rep["totals"].(map[string]any); ok {
		delete(tot, "reconstructed_bytes")
	}
	strip := func(key string, fields ...string) {
		list, _ := rep[key].([]any)
		for _, e := range list {
			for _, f := range fields {
				delete(e.(map[string]any), f)
			}
		}
	}
	strip("per_drive", "reconstructed_bytes")
	strip("retired", "reconstructed_bytes")
	strip("tenants", "latency", "slo_breaches", "slo_breach_rounds")
	mjs, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(report []byte, stream string) string {
		h := sha256.New()
		h.Write(report)
		h.Write([]byte(stream))
		return hex.EncodeToString(h.Sum(nil))
	}
	return digestPair{Full: sum(js, full.String()), Masked: sum(mjs, masked.String())}
}

// TestArrayDigests replays the mode × cache × fault matrix against the
// digests recorded before the executors were merged. none and parity
// must reproduce byte for byte. mirror may differ only in the declared
// model change — partner-served degraded reads are now accounted like
// reconstructions — which the masked digest proves.
func TestArrayDigests(t *testing.T) {
	want := map[string]digestPair{}
	if !*updateDigests {
		raw, err := os.ReadFile(digestFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]digestPair{}
	for _, mode := range digestModes {
		for _, cache := range []bool{false, true} {
			for _, fault := range digestFaults {
				name := fmt.Sprintf("%s/cache=%v/%s", mode, cache, fault)
				t.Run(name, func(t *testing.T) {
					d := digestRun(t, digestConfig(mode, cache, fault))
					got[name] = d
					if *updateDigests {
						return
					}
					w, ok := want[name]
					switch {
					case !ok:
						t.Fatalf("no recorded digest for %s", name)
					case d.Full == w.Full:
					case mode == RedundancyMirror && d.Masked == w.Masked:
						t.Logf("%s: declared model change (degraded-read accounting only)", name)
					default:
						t.Fatalf("%s: digest %s (masked %s), recorded %s (masked %s)", name, d.Full, d.Masked, w.Full, w.Masked)
					}
				})
			}
		}
	}
	if *updateDigests {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
