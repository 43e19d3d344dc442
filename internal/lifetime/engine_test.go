package lifetime

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"xlnand/internal/sim"
)

// TestLifetimeCatalogInvariants runs every catalog scenario end to end.
// The engine checks the soak invariants internally (no lost writes, no
// silent corruption, monotone per-block wear, scrub heals what it
// claims, run UBER under the scenario ceiling) and fails loudly with the
// reproducing seed; this test additionally sanity-checks the report
// shape.
func TestLifetimeCatalogInvariants(t *testing.T) {
	if raceEnabled {
		t.Skip("catalog soak is minutes under the race detector; golden scenarios cover the same paths")
	}
	for _, sc := range Catalog() {
		sc := sc
		if sc.Name == "ldpc-soft-archive" {
			// ~20s of min-sum on deliberately-hopeless hard rungs;
			// TestLDPCSoftArchiveLivesOnSoftRung holds it to stronger
			// assertions, so the generic soak skips the duplicate.
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(sc)
			if err != nil {
				t.Fatalf("scenario failed: %v", err)
			}
			if len(rep.Phases) != len(sc.Phases) {
				t.Fatalf("report has %d phases, scenario %d", len(rep.Phases), len(sc.Phases))
			}
			if rep.Totals.HostReads == 0 || rep.Totals.HostWrites == 0 {
				t.Fatalf("degenerate run: totals %+v", rep.Totals)
			}
			if rep.Totals.UBER > sc.MaxUBER {
				t.Fatalf("UBER %g above ceiling %g escaped the engine", rep.Totals.UBER, sc.MaxUBER)
			}
			// Wear must ratchet upward across the phase series.
			prev := 0.0
			for _, ph := range rep.Phases {
				if ph.WearMax < prev {
					t.Fatalf("phase %q wear max %g below previous %g", ph.Name, ph.WearMax, prev)
				}
				prev = ph.WearMax
			}
			// A biography that never exercised the decoder is sized wrong.
			if rep.Totals.CorrectedBits == 0 {
				t.Fatalf("scenario never saw a corrected bit; stress too low")
			}
		})
	}
}

// softArchiveReport runs ldpc-soft-archive — tier-1's costliest scenario
// — once for both tests that need its report: it is the first of
// TestLifetimeDeterministicReports' two runs and the one
// TestLDPCSoftArchiveLivesOnSoftRung asserts on.
var softArchiveReport = sync.OnceValues(func() (*Report, error) {
	return Run(SoftDecisionLDPCArchive())
})

// TestLifetimeDeterministicReports is the seed-reproducibility contract:
// two runs of the same scenario with the same seed produce byte-identical
// report JSON.
func TestLifetimeDeterministicReports(t *testing.T) {
	scenarios := GoldenShort()
	if !raceEnabled {
		scenarios = append(scenarios, ShortestScenario())
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			first := func() (*Report, error) { return Run(sc) }
			if sc.Name == SoftDecisionLDPCArchive().Name {
				first = softArchiveReport
			}
			a, err := first()
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := Run(sc)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			ja, err := a.JSON()
			if err != nil {
				t.Fatal(err)
			}
			jb, err := b.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ja, jb) {
				t.Fatalf("same seed produced different reports:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", ja, jb)
			}
		})
	}
}

// TestLifetimeSeedChangesTrajectory guards against the opposite failure:
// a seed that does not reach the fault-injection path would make the
// determinism test vacuous.
func TestLifetimeSeedChangesTrajectory(t *testing.T) {
	if raceEnabled {
		t.Skip("skipped under race: golden determinism tests cover the engine")
	}
	sc := GoldenShort()[0]
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed++
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := a.JSON()
	jb, _ := b.JSON()
	if bytes.Equal(ja, jb) {
		t.Fatalf("different seeds produced identical reports; fault injection not engaged")
	}
}

// TestLifetimePolicyRetunes checks the cross-layer hook: the wear ladder
// must move a nominal partition to max-read once the biography crosses
// its wear threshold.
func TestLifetimePolicyRetunes(t *testing.T) {
	if raceEnabled {
		t.Skip("full read-archive biography is minutes under race")
	}
	sc := ReadIntensiveArchive()
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	first := rep.Phases[0].Partitions[0].Mode
	if first != sim.ModeNominal.String() {
		t.Fatalf("archive started in %q, want nominal", first)
	}
	last := rep.Phases[len(rep.Phases)-1].Partitions[0].Mode
	if last != sim.ModeMaxRead.String() {
		t.Fatalf("archive ended in %q, want max-read (wear %g crossed the ladder)",
			last, rep.Totals.FinalWearMax)
	}
}

// TestLifetimeRetirementEngages checks that the write-heavy biography
// actually sheds worn blocks, and that the spare-block guard leaves the
// partition functional afterwards (the run itself would fail on any
// write error).
func TestLifetimeRetirementEngages(t *testing.T) {
	if raceEnabled {
		t.Skip("full write-logging biography is minutes under race")
	}
	rep, err := Run(WriteHeavyLogging())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.RetiredBlocks == 0 {
		t.Fatalf("wear ceiling %g never retired a block (final wear %g)",
			WriteHeavyLogging().WearCeiling, rep.Totals.FinalWearMax)
	}
}

// TestLifetimeScrubberEngages checks the background refresh loop did
// real work in at least one catalog scenario.
func TestLifetimeScrubberEngages(t *testing.T) {
	if raceEnabled {
		t.Skip("full write-logging biography is minutes under race")
	}
	rep, err := Run(WriteHeavyLogging())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.PagesScrubbed == 0 {
		t.Fatalf("scrubber never moved a page over the whole biography")
	}
}

// TestScenarioValidation exercises the scenario validator's rejections.
func TestScenarioValidation(t *testing.T) {
	base := GoldenShort()[0]
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"empty name", func(s *Scenario) { s.Name = "" }},
		{"no dies", func(s *Scenario) { s.Dies = 0 }},
		{"no partitions", func(s *Scenario) { s.Partitions = nil }},
		{"tiny partition", func(s *Scenario) { s.Partitions[0].Blocks = 1 }},
		{"oversubscribed", func(s *Scenario) { s.Partitions[0].Blocks = 99 }},
		{"no phases", func(s *Scenario) { s.Phases = nil }},
		{"bad read fraction", func(s *Scenario) { s.Phases[0].ReadFraction = 1.5 }},
		{"negative stress", func(s *Scenario) { s.Phases[0].BakeHours = -1 }},
		{"infinite bake", func(s *Scenario) { s.Phases[0].BakeHours = math.Inf(1) }},
		{"NaN bake", func(s *Scenario) { s.Phases[0].BakeHours = math.NaN() }},
		{"bad scrub threshold", func(s *Scenario) { s.Scrub.FractionOfT = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base
			sc.Partitions = append([]PartitionConfig(nil), base.Partitions...)
			sc.Phases = append([]Phase(nil), base.Phases...)
			tc.mutate(&sc)
			if err := sc.Validate(); err == nil {
				t.Fatalf("validator accepted %s", tc.name)
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("validator rejected a catalog fixture: %v", err)
	}
}

// TestCorrectedHist pins the histogram bucketing.
func TestCorrectedHist(t *testing.T) {
	var h CorrectedHist
	for _, c := range []int{0, 1, 2, 3, 4, 7, 8, 63, 64, 1000} {
		h.Add(c)
	}
	want := CorrectedHist{1, 1, 2, 2, 1, 0, 1, 2}
	if h != want {
		t.Fatalf("hist = %v, want %v", h, want)
	}
}

// BenchmarkLifetimeSmoke runs the shortest catalog scenario end to end —
// the soak harness's wall cost.
func BenchmarkLifetimeSmoke(b *testing.B) {
	sc := ShortestScenario()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Totals.CorrectedBits), "corrected_bits")
	}
}
