package array

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestParityGeometry pins the layouts' address math: locate and pageOf
// are inverses on every home, no data page ever lands on its row's
// derived slot, every (slot, lpa) cell is used at most once, and each
// chunk's peer range holds exactly the slots that XOR back to it.
func TestParityGeometry(t *testing.T) {
	for _, tc := range []struct {
		mode   string
		drives int
	}{{RedundancyNone, 4}, {RedundancyMirror, 6}, {RedundancyParity, 5}} {
		for _, sp := range []int{1, 4} {
			lay, err := newLayout(tc.mode, tc.drives, sp)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[[2]int]int{}
			pages := lay.dataSlots() * sp * 4 * tc.drives // a few full parity rotations
			for p := 0; p < pages; p++ {
				drv, lpa := lay.locate(p)
				hlpa, homes, n := lay.homes(p)
				if hlpa != lpa || homes[0] != drv {
					t.Fatalf("%s/%d: homes(%d) = %v@%d, locate says %d@%d", tc.mode, sp, p, homes[:n], hlpa, drv, lpa)
				}
				for _, h := range homes[:n] {
					if h == lay.derived(lpa) {
						t.Fatalf("%s/%d: page %d landed on derived slot %d", tc.mode, sp, p, h)
					}
					if back := lay.pageOf(h, lpa); back != p {
						t.Fatalf("%s/%d: pageOf(home %d of page %d) = %d", tc.mode, sp, h, p, back)
					}
					key := [2]int{h, lpa}
					if prev, dup := seen[key]; dup {
						t.Fatalf("%s/%d: pages %d and %d share slot %d lpa %d", tc.mode, sp, prev, p, h, lpa)
					}
					seen[key] = p
					lo, hi := lay.peers(h)
					wantPeers := map[string]int{RedundancyNone: 0, RedundancyMirror: 1, RedundancyParity: tc.drives - 1}[tc.mode]
					if h < lo || h >= hi || hi-lo-1 != wantPeers {
						t.Fatalf("%s/%d: peers(%d) = [%d,%d), want %d peers around it", tc.mode, sp, h, lo, hi, wantPeers)
					}
				}
			}
			// Every derived cell resolves to no data page.
			for lpa := 0; lpa < 8*sp; lpa++ {
				if pd := lay.derived(lpa); pd >= 0 {
					if got := lay.pageOf(pd, lpa); got != -1 {
						t.Fatalf("%s/%d: derived cell slot %d lpa %d resolved to page %d", tc.mode, sp, pd, lpa, got)
					}
				} else if tc.mode == RedundancyParity {
					t.Fatalf("parity layout names no derived slot at lpa %d", lpa)
				}
			}
		}
	}
}

// TestErrClosed pins the typed post-Close contract: Submit, Drain and
// Flush all return ErrClosed, and double-Close is a no-op.
func TestErrClosed(t *testing.T) {
	a, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	a.Close() // idempotent
	if err := a.Submit(Op{Tenant: "default", Page: 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if _, err := a.Drain(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after Close: %v, want ErrClosed", err)
	}
	if err := a.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: %v, want ErrClosed", err)
	}
}

// TestRedundancyValidation pins config rejection: parity below three
// drives, mirror with odd counts, unknown modes, malformed fault plans,
// and the reserved rebuild tenant name.
func TestRedundancyValidation(t *testing.T) {
	bad := []Config{
		func() Config { c := testConfig(2); c.Redundancy = "parity"; return c }(),
		func() Config { c := testConfig(3); c.Redundancy = "mirror"; return c }(),
		func() Config { c := testConfig(2); c.Redundancy = "raid6"; return c }(),
		func() Config {
			c := testConfig(2)
			c.Faults = FaultPlan{Drives: []DriveFault{{Drive: 7}}}
			return c
		}(),
		func() Config {
			c := testConfig(2)
			c.Faults = FaultPlan{Drives: []DriveFault{{Drive: 0, TransientErrRate: 1.5}}}
			return c
		}(),
		func() Config {
			c := testConfig(4)
			c.Redundancy = "mirror"
			c.Tenants = []TenantConfig{{Name: "rebuild"}}
			return c
		}(),
	}
	for i, cfg := range bad {
		if a, err := New(cfg); err == nil {
			a.Close()
			t.Fatalf("config %d accepted, want error", i)
		}
	}
}

// parityScenario runs the catalog scenario: an 8-drive parity fleet
// with one hot spare loses drive 3 to a fail-stop mid-biography. It
// returns the report JSON and a completion digest.
func parityScenario(t *testing.T) ([]byte, string) {
	t.Helper()
	cfg := testConfig(8)
	cfg.Redundancy = RedundancyParity
	cfg.Spares = 1
	cfg.Cache = CacheConfig{Pages: 16}
	cfg.Faults = FaultPlan{Seed: 77, Drives: []DriveFault{{Drive: 3, FailStopRound: 5}}}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const n = 240
	var digest string
	addDigest := func(res []Result) {
		for _, r := range res {
			errBit := 0
			if r.Err != nil {
				errBit = 1
			}
			digest += fmt.Sprintf("%v/%d/%d/%v/%d/%d;", r.Write, r.Page, r.Drive, r.CacheHit, r.Latency, errBit)
		}
	}

	// Phase A: fill. The fail-stop fires mid-drain, so part of the fill
	// lands degraded (parity carries the dead slot's content).
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	res := mustDrain(t, a)
	addDigest(res)
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("write page %d lost through single failure: %v", r.Page, r.Err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}

	// Phase B: read everything back — degraded reads reconstruct the
	// dead slot's pages until the rebuild catches up.
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Page: p}); err != nil {
			t.Fatal(err)
		}
	}
	res = mustDrain(t, a)
	addDigest(res)
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("read page %d through single failure: %v", r.Page, r.Err)
		}
		if !bytes.Equal(r.Data, pagePattern(a, r.Page, 0)) {
			t.Fatalf("page %d silently corrupted through failure", r.Page)
		}
	}

	// Phase C: the rebuild converged inside Drain; the restored slot
	// (now the spare) must serve directly.
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Page: p}); err != nil {
			t.Fatal(err)
		}
	}
	res = mustDrain(t, a)
	addDigest(res)
	for _, r := range res {
		if r.Err != nil || !bytes.Equal(r.Data, pagePattern(a, r.Page, 0)) {
			t.Fatalf("page %d wrong after restore: %v", r.Page, r.Err)
		}
	}

	js, err := a.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}

	rep := a.Report()
	s3 := rep.PerDrive[3]
	if s3.Health != "restored" {
		t.Fatalf("slot 3 health %q, want restored", s3.Health)
	}
	wantSeq := []string{"dead", "rebuilding", "restored"}
	if len(s3.Transitions) != len(wantSeq) {
		t.Fatalf("slot 3 transitions %+v, want healthy→dead→rebuilding→restored", s3.Transitions)
	}
	for i, tr := range s3.Transitions {
		if tr.To != wantSeq[i] {
			t.Fatalf("transition %d = %s→%s, want →%s", i, tr.From, tr.To, wantSeq[i])
		}
	}
	if s3.Transitions[0].From != "healthy" {
		t.Fatalf("first transition from %q, want healthy", s3.Transitions[0].From)
	}
	if rep.Totals.LostWrites != 0 || rep.Cache.WritebackLost != 0 {
		t.Fatalf("lost writes through a single protected failure: %d (+%d writebacks)",
			rep.Totals.LostWrites, rep.Cache.WritebackLost)
	}
	if rep.Totals.DegradedReads == 0 || rep.Totals.ReconstructedBytes == 0 {
		t.Fatalf("no degraded reads recorded: %+v", rep.Totals)
	}
	if len(rep.Rebuilds) != 1 || !rep.Rebuilds[0].Complete || rep.Rebuilds[0].Lost != 0 {
		t.Fatalf("rebuild did not converge cleanly: %+v", rep.Rebuilds)
	}
	if rep.SparesFree != 0 || len(rep.Retired) != 1 {
		t.Fatalf("spare accounting wrong: free %d retired %d", rep.SparesFree, len(rep.Retired))
	}
	if s3.Physical != 8 {
		t.Fatalf("slot 3 served by physical %d, want spare 8", s3.Physical)
	}
	return js, digest
}

// TestParityFailStop is the acceptance pin: a parity-protected 8-drive
// fleet fail-stops one drive mid-biography and completes with zero
// lost writes, zero silent corruption, the full health transition on
// record, and a byte-identical report per seed.
func TestParityFailStop(t *testing.T) {
	js1, d1 := parityScenario(t)
	js2, d2 := parityScenario(t)
	if d1 != d2 {
		t.Fatal("completion streams diverged between identical degraded runs")
	}
	if !bytes.Equal(js1, js2) {
		t.Fatal("fleet reports diverged between identical degraded runs")
	}
}

// TestMirrorFailStop runs the same biography under RAID-1: partner
// copies serve degraded reads and source the rebuild.
func TestMirrorFailStop(t *testing.T) {
	cfg := testConfig(4)
	cfg.Redundancy = RedundancyMirror
	cfg.Spares = 1
	cfg.Cache = CacheConfig{Pages: 8}
	cfg.Faults = FaultPlan{Drives: []DriveFault{{Drive: 0, FailStopRound: 3}}}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if a.VolumePages() != 2*128 {
		t.Fatalf("mirror volume pages = %d, want 256", a.VolumePages())
	}
	const n = 120
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, a)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	// Overwrite a slice while degraded, then verify everything.
	for p := 0; p < n; p += 3 {
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, a)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Page: p}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range mustDrain(t, a) {
		if r.Err != nil {
			t.Fatalf("mirror read page %d: %v", r.Page, r.Err)
		}
		version := 0
		if r.Page%3 == 0 {
			version = 1
		}
		if !bytes.Equal(r.Data, pagePattern(a, r.Page, version)) {
			t.Fatalf("mirror page %d corrupted through failure", r.Page)
		}
	}
	rep := a.Report()
	if rep.Totals.LostWrites != 0 || rep.Cache.WritebackLost != 0 {
		t.Fatalf("mirror lost writes: %+v", rep.Totals)
	}
	if rep.PerDrive[0].Health != "restored" {
		t.Fatalf("slot 0 health %q, want restored", rep.PerDrive[0].Health)
	}
	if len(rep.Rebuilds) != 1 || !rep.Rebuilds[0].Complete || rep.Rebuilds[0].Lost != 0 {
		t.Fatalf("mirror rebuild: %+v", rep.Rebuilds)
	}
}

// TestNoneModeHonestLoss pins degraded behavior WITHOUT redundancy: a
// dead drive's pages are errors, dirty write-backs aimed at it are
// counted lost, and nothing panics or lies.
func TestNoneModeHonestLoss(t *testing.T) {
	cfg := testConfig(4)
	cfg.Cache = CacheConfig{Pages: 8}
	cfg.Faults = FaultPlan{Drives: []DriveFault{{Drive: 2, FailStopRound: 3}}}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const n = 64
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, a)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	// Overwrite everything after the drive died: write-backs aimed at
	// the dead drive must surface as losses, not vanish.
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, a)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}

	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Page: p}); err != nil {
			t.Fatal(err)
		}
	}
	deadErrs := 0
	for _, r := range mustDrain(t, a) {
		drv, _ := a.lay.locate(r.Page)
		if r.Err != nil {
			if !errors.Is(r.Err, ErrDriveDead) {
				t.Fatalf("read page %d: unexpected error %v", r.Page, r.Err)
			}
			if drv != 2 {
				t.Fatalf("live drive %d surfaced ErrDriveDead for page %d", drv, r.Page)
			}
			deadErrs++
			continue
		}
		if drv != 2 && !bytes.Equal(r.Data, pagePattern(a, r.Page, 1)) {
			t.Fatalf("live page %d served wrong version", r.Page)
		}
	}
	if deadErrs == 0 {
		t.Fatal("no honest errors for the dead drive's pages")
	}
	rep := a.Report()
	if rep.Totals.LostWrites == 0 || rep.Cache.WritebackLost == 0 {
		t.Fatalf("write-back loss not surfaced: lost %d cache %d",
			rep.Totals.LostWrites, rep.Cache.WritebackLost)
	}
	if rep.PerDrive[2].Health != "dead" {
		t.Fatalf("slot 2 health %q, want dead (no redundancy, no rebuild)", rep.PerDrive[2].Health)
	}
	if rep.PerDrive[2].Physical != 2 {
		t.Fatalf("dead slot report lost its stack snapshot: %+v", rep.PerDrive[2])
	}
}

// TestTransientFaultRecovery pins the injector and the recovery path:
// a drive refusing ops at a seeded rate stays usable behind parity,
// the injected count lands in the report, and the run is deterministic.
func TestTransientFaultRecovery(t *testing.T) {
	run := func() ([]byte, int64) {
		cfg := testConfig(4)
		cfg.Redundancy = RedundancyParity
		cfg.Cache = CacheConfig{Pages: 8}
		cfg.Faults = FaultPlan{Seed: 5, Drives: []DriveFault{
			{Drive: 1, TransientErrRate: 0.2, LatencyFactor: 3},
		}}
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		const n = 150
		for p := 0; p < n; p++ {
			if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, 0)}); err != nil {
				t.Fatal(err)
			}
		}
		mustDrain(t, a)
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < n; p++ {
			if err := a.Submit(Op{Tenant: "default", Page: p}); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range mustDrain(t, a) {
			if r.Err == nil && !bytes.Equal(r.Data, pagePattern(a, r.Page, 0)) {
				t.Fatalf("page %d silently corrupted by transient faults", r.Page)
			}
		}
		rep := a.Report()
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js, rep.Totals.InjectedFaults
	}
	js1, injected := run()
	js2, _ := run()
	if injected == 0 {
		t.Fatal("fault injector never fired at rate 0.2")
	}
	if !bytes.Equal(js1, js2) {
		t.Fatal("reports diverged under seeded transient faults")
	}
}

// TestUBERClimateDeath pins the climate arm of the health machine: a
// drive whose observed error rate crosses the ceiling is declared dead
// and rebuilt onto the spare.
func TestUBERClimateDeath(t *testing.T) {
	cfg := testConfig(4)
	cfg.Redundancy = RedundancyParity
	cfg.Spares = 1
	cfg.Faults = FaultPlan{Seed: 9, Drives: []DriveFault{
		{Drive: 2, TransientErrRate: 0.6, UBERCeiling: 0.05, MinReads: 16},
	}}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const n = 200
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, a)
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Page: p}); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, a)
	rep := a.Report()
	s2 := rep.PerDrive[2]
	if s2.Health != "restored" && s2.Health != "rebuilding" && s2.Health != "dead" {
		t.Fatalf("slot 2 health %q: UBER climate never judged", s2.Health)
	}
	sawDead := false
	for _, tr := range s2.Transitions {
		if tr.To == "dead" {
			sawDead = true
		}
	}
	if !sawDead {
		t.Fatalf("no death transition recorded: %+v", s2.Transitions)
	}
}

// TestRebuildThrottled pins rebuild-as-a-tenant: a throttled rebuild
// rate visibly stretches the repair and records throttling, yet still
// converges inside Drain.
func TestRebuildThrottled(t *testing.T) {
	cfg := testConfig(4)
	cfg.Redundancy = RedundancyParity
	cfg.Spares = 1
	cfg.RebuildRate = 50 // burst 5: the ~50-page rebuild must wait on tokens
	cfg.Faults = FaultPlan{Drives: []DriveFault{{Drive: 1, FailStopRound: 7}}}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// The whole fill lands while the drive is alive; the fail-stop fires
	// during the read pass, so everything on the slot needs rebuilding.
	const n = 150
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, a)
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Page: p}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range mustDrain(t, a) {
		if r.Err != nil {
			t.Fatalf("read page %d during throttled rebuild: %v", r.Page, r.Err)
		}
	}
	rep := a.Report()
	if len(rep.Rebuilds) != 1 || !rep.Rebuilds[0].Complete {
		t.Fatalf("throttled rebuild did not converge: %+v", rep.Rebuilds)
	}
	var rb TenantStats
	for _, ts := range rep.Tenants {
		if ts.Name == rebuildTenant {
			rb = ts
		}
	}
	if rb.Name == "" {
		t.Fatal("rebuild tenant missing from report")
	}
	if rb.Writes == 0 {
		t.Fatal("rebuild tenant moved no pages")
	}
	if rb.Rate != 50 || rb.Throttled == 0 {
		t.Fatalf("rebuild throttling invisible: %+v", rb)
	}
}

// faultFleetWorkload is fleetWorkload's degraded twin: 16 drives with
// parity, a hot spare, a mid-run fail-stop and a transient-fault drive.
func faultFleetWorkload(t *testing.T) ([]byte, string) {
	t.Helper()
	cfg := testConfig(16)
	cfg.Seed = 424243
	cfg.Redundancy = RedundancyParity
	cfg.Spares = 1
	cfg.Cache = CacheConfig{Pages: 48}
	cfg.Tenants = []TenantConfig{
		{Name: "scan", Rate: 4000, Burst: 16},
		{Name: "oltp"},
	}
	cfg.Faults = FaultPlan{Seed: 31337, Drives: []DriveFault{
		{Drive: 5, FailStopRound: 7},
		{Drive: 11, TransientErrRate: 0.02, LatencyFactor: 2},
	}}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	state := uint64(0xabcdef12345)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	var digest string
	for round := 0; round < 6; round++ {
		for i := 0; i < 60; i++ {
			tenant := "scan"
			if i%3 == 0 {
				tenant = "oltp"
			}
			page := next(a.VolumePages())
			if next(10) < 6 {
				if err := a.Submit(Op{Tenant: tenant, Write: true, Page: page, Data: pagePattern(a, page, round)}); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := a.Submit(Op{Tenant: tenant, Page: page}); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := a.Drain()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			errBit := 0
			if r.Err != nil {
				errBit = 1
			}
			digest += fmt.Sprintf("%s/%v/%d/%d/%v/%d/%d;", r.Tenant, r.Write, r.Page, r.Drive, r.CacheHit, r.Latency, errBit)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	js, err := a.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js, digest
}

// TestFleetDeterminismUnderFaults is the degraded determinism pin: a
// 16-drive run with a mid-run fail-stop and seeded transient faults
// produces byte-identical FleetReports per seed (run under -race in CI).
func TestFleetDeterminismUnderFaults(t *testing.T) {
	js1, d1 := faultFleetWorkload(t)
	js2, d2 := faultFleetWorkload(t)
	if d1 != d2 {
		t.Fatal("completion streams diverged between identical faulted runs")
	}
	if !bytes.Equal(js1, js2) {
		t.Fatalf("fleet reports diverged between identical faulted runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", js1, js2)
	}
}

// BenchmarkDegradedRead measures the reconstruction overhead: reads of
// a parity fleet before and after one member dies (no spare, so every
// read of the dead slot reconstructs).
func BenchmarkDegradedRead(b *testing.B) {
	for _, state := range []string{"healthy", "degraded"} {
		b.Run(state, func(b *testing.B) {
			cfg := testConfig(8)
			cfg.Redundancy = RedundancyParity
			a, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			const warm = 256
			for p := 0; p < warm; p++ {
				if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: make([]byte, a.PageBytes())}); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := a.Drain(); err != nil {
				b.Fatal(err)
			}
			if state == "degraded" {
				a.kill(a.slots[3]) // no spare: stays dead, reads reconstruct
			}
			// Both variants read the same page set — the pages living on
			// slot 3 — so the delta is purely the reconstruction cost.
			var targets []int
			for p := 0; p < warm; p++ {
				if drv, _ := a.lay.locate(p); drv == 3 {
					targets = append(targets, p)
				}
			}
			var lat, reads int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Submit(Op{Tenant: "default", Page: targets[i%len(targets)]}); err != nil {
					b.Fatal(err)
				}
				if i%64 == 63 {
					res, err := a.Drain()
					if err != nil {
						b.Fatal(err)
					}
					for _, r := range res {
						lat += r.Latency.Microseconds()
						reads++
					}
				}
			}
			res, err := a.Drain()
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			for _, r := range res {
				lat += r.Latency.Microseconds()
				reads++
			}
			rep := a.Report()
			if reads > 0 {
				b.ReportMetric(float64(lat)/float64(reads), "read_us")
			}
			b.ReportMetric(float64(rep.Totals.DegradedReads), "degraded_reads")
		})
	}
}

// BenchmarkRebuild measures modelled rebuild throughput vs fleet size:
// one member dies with a hot spare standing by and Drain carries the
// rebuild to convergence.
func BenchmarkRebuild(b *testing.B) {
	for _, drives := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("drives=%d", drives), func(b *testing.B) {
			var mbps, pages float64
			for i := 0; i < b.N; i++ {
				cfg := testConfig(drives)
				cfg.Redundancy = RedundancyParity
				cfg.Spares = 1
				a, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				warm := a.VolumePages() / 2
				for p := 0; p < warm; p++ {
					if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: make([]byte, a.PageBytes())}); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := a.Drain(); err != nil {
					b.Fatal(err)
				}
				a.kill(a.slots[1]) // spare attaches, rebuild starts
				if _, err := a.Drain(); err != nil {
					b.Fatal(err)
				}
				rep := a.Report()
				if len(rep.Rebuilds) != 1 || !rep.Rebuilds[0].Complete {
					b.Fatalf("rebuild did not converge: %+v", rep.Rebuilds)
				}
				mbps += rep.Rebuilds[0].MBPerSec
				pages += float64(rep.Rebuilds[0].Pages)
				a.Close()
			}
			b.ReportMetric(mbps/float64(b.N), "rebuild_mb_per_sec")
			b.ReportMetric(pages/float64(b.N), "rebuild_pages")
		})
	}
}

// runRebuildClobber aligns host overwrites with the rebuild cursor:
// after deadSlot fail-stops, every rebuild round's host ops overwrite
// the very volume pages whose drive-local lpas the cursor copies that
// round (where overlap(lpa) allows), then a full read pass verifies no
// page serves its stale pre-overwrite image. This is the ordering bug
// class fixed in execFlat: the rebuild source image is read in phase 1
// but written onto the spare in phase 3, after the host write landed.
func runRebuildClobber(t *testing.T, cfg Config, deadSlot int, overlap func(lpa int) bool) {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	n := a.VolumePages()
	version := make([]int, n)
	w := func(p, v int) {
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, v)}); err != nil {
			t.Fatal(err)
		}
		version[p] = v
	}
	rd := func(p int) {
		if err := a.Submit(Op{Tenant: "default", Page: p}); err != nil {
			t.Fatal(err)
		}
	}
	ops := cfg.RoundOps
	for p := 0; p < n; p++ { // fill rounds: 1..n/ops
		w(p, 0)
	}
	for i := 0; i < ops; i++ { // one padding round before the fail-stop
		rd(n - 1)
	}
	// From the fail-stop round on, the cursor copies `budget` lpas per
	// round; submit each round's overwrites first so they share the
	// round with the rebuild of the same pages.
	budget := ops / 4
	for cur := 0; cur < a.perDriveLPAs; cur += budget {
		submitted := 0
		for k := 0; k < budget && cur+k < a.perDriveLPAs; k++ {
			lpa := cur + k
			pg := a.lay.pageOf(deadSlot, lpa)
			if pg >= 0 && overlap(lpa) {
				w(pg, 1)
				submitted++
			}
		}
		for ; submitted < ops; submitted++ {
			rd(n - 1)
		}
	}
	mustDrain(t, a)
	for p := 0; p < n; p++ {
		rd(p)
	}
	stale := 0
	for _, r := range mustDrain(t, a) {
		if r.Err != nil {
			t.Fatalf("read %d: %v", r.Page, r.Err)
		}
		want := version[r.Page]
		if !bytes.Equal(r.Data, pagePattern(a, r.Page, want)) {
			if want == 1 && bytes.Equal(r.Data, pagePattern(a, r.Page, 0)) {
				stale++
				if stale <= 5 {
					t.Logf("page %d serves STALE pre-overwrite data from slot %d", r.Page, r.Drive)
				}
			} else {
				t.Fatalf("page %d: garbage", r.Page)
			}
		}
	}
	rep := a.Report()
	if len(rep.Rebuilds) != 1 || !rep.Rebuilds[0].Complete {
		t.Fatalf("rebuild did not converge: %+v", rep.Rebuilds)
	}
	t.Logf("stale=%d lost=%d rebuild=%+v", stale, rep.Totals.LostWrites, rep.Rebuilds[0])
	if stale > 0 {
		t.Fatalf("%d pages serve stale data after rebuild", stale)
	}
}

// clobberConfig builds the aligned-overwrite fleet: RoundOps 8 means a
// rebuild budget of 2 lpas per round, and the fail-stop fires right
// after the fill plus one padding round so cursor position and round
// number stay in lockstep.
func clobberConfig(t *testing.T, drives int, mode string) Config {
	t.Helper()
	cfg := testConfig(drives)
	cfg.Redundancy = mode
	cfg.Spares = 1
	cfg.RoundOps = 8
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	failRound := int64(a.VolumePages()/cfg.RoundOps) + 2
	a.Close()
	cfg.Faults = FaultPlan{Drives: []DriveFault{{Drive: 0, FailStopRound: failRound}}}
	return cfg
}

// TestReproRebuildClobber is the mirror-mode regression: round r's host
// overwrite of the pages the cursor rebuilds in round r must win over
// the stale partner image read before the write landed.
func TestReproRebuildClobber(t *testing.T) {
	cfg := clobberConfig(t, 2, RedundancyMirror)
	runRebuildClobber(t, cfg, 0, func(int) bool { return true })
}

// TestReproRebuildClobberParity pins the same ordering guarantee for
// the parity executor, where rebuild copies are staged ahead of host
// writes inside the phase-3 batch so the host write wins batch order.
func TestReproRebuildClobberParity(t *testing.T) {
	cfg := clobberConfig(t, 4, RedundancyParity)
	runRebuildClobber(t, cfg, 0, func(int) bool { return true })
}

// TestReproRebuildClobberCheckpointEdge overwrites exactly the pages at
// the 32-page checkpoint boundary (lpas 31..33) and nothing else, so
// the invalidation path crosses a progress checkpoint mid-stream.
func TestReproRebuildClobberCheckpointEdge(t *testing.T) {
	cfg := clobberConfig(t, 2, RedundancyMirror)
	runRebuildClobber(t, cfg, 0, func(lpa int) bool {
		return lpa >= rebuildCheckpointEvery-1 && lpa <= rebuildCheckpointEvery+1
	})
}
