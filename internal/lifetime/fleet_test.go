package lifetime

import (
	"bytes"
	"testing"
)

// TestFleetDeterminism is the acceptance pin for determinism at scale:
// sixteen drives run their biographies concurrently, and two runs of
// the same fleet seed produce byte-identical merged reports.
func TestFleetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet determinism needs two full 16-drive runs")
	}
	fs := FleetSmoke()
	run := func() []byte {
		t.Helper()
		res, err := RunFleet(fs)
		if err != nil {
			t.Fatal(err)
		}
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	js1, js2 := run(), run()
	if !bytes.Equal(js1, js2) {
		t.Fatalf("fleet results diverged between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", js1, js2)
	}
}

// TestFleetSoakDeterminism is the acceptance pin for the
// hundreds-of-drives soak: the full 128-drive fleet-soak scenario runs
// twice and the merged reports must be byte-identical, with the three
// scheduled fail-stops recorded exactly where the scenario put them.
func TestFleetSoakDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak needs two full 128-drive runs")
	}
	if raceEnabled {
		t.Skip("128-drive soak is minutes under the race detector; TestFleetDeterminism covers the concurrent merge")
	}
	fs := FleetSoak()
	run := func() (*FleetResult, []byte) {
		t.Helper()
		res, err := RunFleet(fs)
		if err != nil {
			t.Fatal(err)
		}
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return res, js
	}
	res, js1 := run()
	if _, js2 := run(); !bytes.Equal(js1, js2) {
		t.Fatal("fleet-soak diverged between identical runs")
	}
	if res.Drives != 128 || len(res.PerDrive) != 128 {
		t.Fatalf("soak ran %d drives (%d reported), want 128", res.Drives, len(res.PerDrive))
	}
	dead := map[int]int{17: 1, 63: 2, 101: 2}
	for _, d := range res.PerDrive {
		want, killed := dead[d.Drive]
		if killed {
			if d.Health != "dead" || d.PhasesRun != want {
				t.Fatalf("drive %d reports health %q phases %d, want dead/%d", d.Drive, d.Health, d.PhasesRun, want)
			}
		} else if d.Health != "" {
			t.Fatalf("healthy drive %d reports health %q", d.Drive, d.Health)
		}
	}
}

// TestFleetMerge checks the merged result's structure: per-drive
// entries in index order with decorrelated seeds, phase counters that
// sum the drives, and totals consistent with the per-drive totals.
func TestFleetMerge(t *testing.T) {
	fs := FleetSmoke()
	fs.Drives = 4
	fs.Name = "fleet-merge-test"
	res, err := RunFleet(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerDrive) != 4 {
		t.Fatalf("%d per-drive entries, want 4", len(res.PerDrive))
	}
	seeds := make(map[uint64]bool)
	var reads, writes int
	for i, d := range res.PerDrive {
		if d.Drive != i {
			t.Fatalf("per-drive entry %d carries drive %d: merge is not index-ordered", i, d.Drive)
		}
		if seeds[d.Seed] {
			t.Fatalf("drive %d reuses seed %d", i, d.Seed)
		}
		seeds[d.Seed] = true
		if d.Totals.HostReads == 0 || d.Totals.HostWrites == 0 {
			t.Fatalf("drive %d saw no traffic: %+v", i, d.Totals)
		}
		reads += d.Totals.HostReads
		writes += d.Totals.HostWrites
	}
	if res.Totals.HostReads != reads || res.Totals.HostWrites != writes {
		t.Fatalf("totals %d/%d reads/writes, drives sum to %d/%d",
			res.Totals.HostReads, res.Totals.HostWrites, reads, writes)
	}
	if len(res.Phases) != len(fs.Base.Phases) {
		t.Fatalf("%d merged phases, want %d", len(res.Phases), len(fs.Base.Phases))
	}
	var phaseReads int
	for _, ph := range res.Phases {
		phaseReads += ph.HostReads
	}
	if phaseReads != reads {
		t.Fatalf("phase series sums to %d reads, drives to %d", phaseReads, reads)
	}
}

// TestFleetFailStop kills one drive mid-biography and checks the merge
// stays honest: the dead drive contributes only its completed phases,
// its health is recorded, and the run stays byte-deterministic.
func TestFleetFailStop(t *testing.T) {
	fs := FleetSmoke()
	fs.Drives = 4
	fs.Name = "fleet-failstop-test"
	fs.FailStops = []FleetFailStop{{Drive: 2, AfterPhase: 0}}
	run := func() (*FleetResult, []byte) {
		t.Helper()
		res, err := RunFleet(fs)
		if err != nil {
			t.Fatal(err)
		}
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return res, js
	}
	res, js1 := run()
	if _, js2 := run(); !bytes.Equal(js1, js2) {
		t.Fatal("fail-stop fleet diverged between identical runs")
	}
	for i, d := range res.PerDrive {
		if i == 2 {
			if d.Health != "dead" || d.PhasesRun != 1 {
				t.Fatalf("killed drive reports health %q phases %d, want dead/1", d.Health, d.PhasesRun)
			}
			continue
		}
		if d.Health != "" || d.PhasesRun != 0 {
			t.Fatalf("healthy drive %d reports health %q phases %d", i, d.Health, d.PhasesRun)
		}
	}
	// The dead drive is absent from every phase after the kill: the
	// second phase's counters sum only the three survivors, so they
	// must be strictly below a full four-drive fleet's.
	full := fs
	full.FailStops = nil
	fullRes, err := RunFleet(full)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Phases[1].HostReads, fullRes.Phases[1].HostReads; got >= want {
		t.Fatalf("post-kill phase saw %d reads, full fleet %d: dead drive still contributing", got, want)
	}
	if res.Phases[0].HostWrites != fullRes.Phases[0].HostWrites {
		t.Fatalf("pre-kill phase diverged: %d writes vs %d", res.Phases[0].HostWrites, fullRes.Phases[0].HostWrites)
	}
	if res.Totals.HostReads >= fullRes.Totals.HostReads {
		t.Fatalf("fleet totals %d reads not below full fleet's %d", res.Totals.HostReads, fullRes.Totals.HostReads)
	}
}

// TestFleetValidate rejects malformed fleet scenarios.
func TestFleetValidate(t *testing.T) {
	good := FleetSmoke()
	if err := good.Validate(); err != nil {
		t.Fatalf("catalog fleet invalid: %v", err)
	}
	bad := good
	bad.Drives = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-drive fleet validated")
	}
	bad = good
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("nameless fleet validated")
	}
	bad = good
	bad.Base.Phases = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("phaseless base validated")
	}
	bad = good
	bad.FailStops = []FleetFailStop{{Drive: 99, AfterPhase: 0}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range fail-stop drive validated")
	}
	bad = good
	bad.FailStops = []FleetFailStop{{Drive: 0, AfterPhase: 5}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range fail-stop phase validated")
	}
	bad = good
	bad.FailStops = []FleetFailStop{{Drive: 1, AfterPhase: 0}, {Drive: 1, AfterPhase: 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("duplicate fail-stop drive validated")
	}
}

// mergePhase is a phase report whose counted fields are distinct
// multiples of k (BitsRead grows with k², so the phases' UBERs differ).
func mergePhase(k int, wearMin, wearMax float64) PhaseReport {
	return PhaseReport{
		HostReads: k, HostWrites: 2 * k, BitsRead: 4096 * int64(k*k), CorrectedBits: 4 * k,
		UncorrectableReads: 5 * k, LostBits: 6 * int64(k), Retries: 7 * k, RecoveredReads: 8 * k,
		RelocRetries: 9 * k, DeepRecovered: 10 * k, SoftSenses: 11 * k, SoftRecovered: 12 * k,
		ScrubPasses: 13 * k, PagesScrubbed: 14 * k, GCMoves: 15 * k, Erases: 16 * k, RetiredBlocks: 17 * k,
		WearMin: wearMin, WearMax: wearMax,
	}
}

// TestFleetMergeFoldsEveryField merges hand-built reports, no
// simulation: three drives over two phases, drive 0 fail-stopped after
// phase 0. Every merged field must equal the sum (or extreme) written
// out below, and phase 1 must see drives 1 and 2 only. Each report's
// own Totals is a marker that PerDrive must carry unchanged; the fleet
// totals fold the phases.
func TestFleetMergeFoldsEveryField(t *testing.T) {
	fs := FleetScenario{
		Name: "merge", Drives: 3,
		Base: Scenario{Name: "base", Phases: []Phase{{Name: "p0"}, {Name: "p1"}}},
	}
	// k per (drive, phase): d0 {1}, d1 {2, 3}, d2 {4, 5}. Phase 0 sums
	// k = 7, phase 1 k = 8, the fleet k = 15.
	reports := []*Report{
		{Seed: 10, Totals: Totals{HostReads: 1000},
			Phases: []PhaseReport{mergePhase(1, 300, 900)}},
		{Seed: 11, Totals: Totals{HostReads: 1001},
			Phases: []PhaseReport{mergePhase(2, 200, 1000), mergePhase(3, 600, 1500)}},
		{Seed: 12, Totals: Totals{HostReads: 1002},
			Phases: []PhaseReport{mergePhase(4, 250, 950), mergePhase(5, 550, 1400)}},
	}
	res := mergeFleet(fs, reports)

	wantPhases := []FleetPhase{
		{Name: "p0", HostReads: 7, HostWrites: 14, CorrectedBits: 28, UncorrectableReads: 35,
			LostBits: 42, Retries: 49, RecoveredReads: 56, SoftSenses: 77, SoftRecovered: 84,
			PagesScrubbed: 98, RetiredBlocks: 119, WearMin: 200, WearMax: 1000,
			UBER: 42.0 / (4096 * 21)},
		{Name: "p1", HostReads: 8, HostWrites: 16, CorrectedBits: 32, UncorrectableReads: 40,
			LostBits: 48, Retries: 56, RecoveredReads: 64, SoftSenses: 88, SoftRecovered: 96,
			PagesScrubbed: 112, RetiredBlocks: 136, WearMin: 550, WearMax: 1500,
			UBER: 48.0 / (4096 * 34)},
	}
	if len(res.Phases) != len(wantPhases) {
		t.Fatalf("%d merged phases, want %d", len(res.Phases), len(wantPhases))
	}
	for i, want := range wantPhases {
		if res.Phases[i] != want {
			t.Errorf("phase %d:\n got  %+v\n want %+v", i, res.Phases[i], want)
		}
	}
	wantTotals := Totals{
		HostReads: 15, HostWrites: 30, BitsRead: 4096 * 55, CorrectedBits: 60,
		UncorrectableReads: 75, LostBits: 90, UBER: 90.0 / (4096 * 55), Retries: 105,
		RecoveredReads: 120, RelocRetries: 135, DeepRecovered: 150, SoftSenses: 165,
		SoftRecovered: 180, ScrubPasses: 195, PagesScrubbed: 210, GCMoves: 225, Erases: 240,
		RetiredBlocks: 255, FinalWearMax: 1500,
	}
	if res.Totals != wantTotals {
		t.Errorf("totals:\n got  %+v\n want %+v", res.Totals, wantTotals)
	}
	wantDrives := []FleetDrive{
		{Drive: 0, Seed: 10, Totals: Totals{HostReads: 1000}, Health: "dead", PhasesRun: 1},
		{Drive: 1, Seed: 11, Totals: Totals{HostReads: 1001}},
		{Drive: 2, Seed: 12, Totals: Totals{HostReads: 1002}},
	}
	if len(res.PerDrive) != len(wantDrives) {
		t.Fatalf("%d per-drive entries, want %d", len(res.PerDrive), len(wantDrives))
	}
	for i, want := range wantDrives {
		if res.PerDrive[i] != want {
			t.Errorf("drive %d:\n got  %+v\n want %+v", i, res.PerDrive[i], want)
		}
	}
}
