package lifetime

import "testing"

// TestLDPCSoftArchiveLivesOnSoftRung is the scenario-level acceptance of
// the soft-decision pipeline: the beyond-datasheet phase must survive on
// multi-sense soft reads (hard rungs exhausted), lose nothing, and pay
// for it in modelled read throughput. The report is the determinism
// test's first run (softArchiveReport), not a third one.
func TestLDPCSoftArchiveLivesOnSoftRung(t *testing.T) {
	if raceEnabled {
		t.Skip("full LDPC biography is minutes under race; the catalog soak covers it race-free")
	}
	rep, err := softArchiveReport()
	if err != nil {
		t.Fatalf("ldpc-soft-archive failed: %v", err)
	}
	young := rep.Phases[0]
	deep := rep.Phases[len(rep.Phases)-1]
	if deep.SoftRecovered == 0 || deep.SoftSenses == 0 {
		t.Fatalf("deep-shelf phase never used the soft rung: %+v", deep)
	}
	if deep.Retries < deep.SoftRecovered*3 {
		t.Fatalf("soft saves without full hard walks: %d retries for %d soft recoveries",
			deep.Retries, deep.SoftRecovered)
	}
	if deep.UBER > SoftDecisionLDPCArchive().MaxUBER {
		t.Fatalf("deep-shelf UBER %.3e above ceiling", deep.UBER)
	}
	// The soft senses and decode iterations must be visible in the
	// modelled throughput: the deep-shelf audit reads far slower than
	// the young medium.
	if deep.ReadMBps >= young.ReadMBps/2 {
		t.Fatalf("soft recovery not visible in throughput: young %.2f MB/s, deep-shelf %.2f MB/s",
			young.ReadMBps, deep.ReadMBps)
	}
	// Every die is LDPC here: the retry histogram's deep bucket holds
	// the full-ladder walks.
	if deep.RetryHist[RetryHistBuckets-1] == 0 {
		t.Fatal("no read walked the full ladder in the deep-shelf phase")
	}
}

// TestAsymmetricWearDivergesCalibration pins the per-die cache split:
// after the asymmetric aging phase the worn die predicts a deeper
// read-reference step than the young one.
func TestAsymmetricWearDivergesCalibration(t *testing.T) {
	if raceEnabled {
		t.Skip("golden-asym pins the same trajectory under race")
	}
	rep, err := Run(AsymmetricDieWear())
	if err != nil {
		t.Fatalf("golden-asym failed: %v", err)
	}
	last := rep.Phases[len(rep.Phases)-1]
	if len(last.CalibSteps) != 2 {
		t.Fatalf("calibration report covers %d dies, want 2", len(last.CalibSteps))
	}
	if last.CalibSteps[0] <= last.CalibSteps[1] {
		t.Fatalf("calibration caches did not diverge: worn die %d, young die %d",
			last.CalibSteps[0], last.CalibSteps[1])
	}
	if last.CalibSteps[1] != 0 {
		t.Fatalf("young die learned step %d; its climate needs none", last.CalibSteps[1])
	}
}
