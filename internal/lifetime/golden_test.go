package lifetime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestGoldenTrajectories pins the reliability trajectory of two short
// canned scenarios against committed fixtures, so a performance PR that
// accidentally changes behaviour anywhere in the stack (fault injection,
// capability selection, scrub order, GC policy) moves a fixture and
// fails loudly instead of silently shifting reliability.
//
// Regenerate the fixtures after an INTENTIONAL behaviour change with:
//
//	UPDATE_LIFETIME_GOLDEN=1 go test ./internal/lifetime -run TestGoldenTrajectories
//
// and review the fixture diff like any other behaviour diff.
func TestGoldenTrajectories(t *testing.T) {
	update := os.Getenv("UPDATE_LIFETIME_GOLDEN") != ""
	for _, sc := range GoldenShort() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rep, err := Run(sc)
			if err != nil {
				t.Fatalf("golden scenario failed: %v", err)
			}
			got, err := json.MarshalIndent(summarize(rep), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden_"+sc.Name+".json")
			if update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with UPDATE_LIFETIME_GOLDEN=1 to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("lifetime trajectory diverged from fixture %s.\n--- got ---\n%s\n--- want ---\n%s\n"+
					"If this change is intentional, regenerate with UPDATE_LIFETIME_GOLDEN=1 and review the diff.",
					path, got, want)
			}
		})
	}
}

// phaseSummary is the golden-fixture slice of a phase: exact counters
// plus floats rounded to 3 significant digits, so fixtures survive
// platform-level floating-point library differences while still pinning
// the reliability trajectory.
type phaseSummary struct {
	Name          string `json:"name"`
	HostReads     int    `json:"host_reads"`
	HostWrites    int    `json:"host_writes"`
	CorrectedBits int    `json:"corrected_bits"`
	Uncorrectable int    `json:"uncorrectable"`
	Retries       int    `json:"retries"`
	Recovered     int    `json:"recovered"`
	SoftSenses    int    `json:"soft_senses"`
	SoftRecovered int    `json:"soft_recovered"`
	PagesScrubbed int    `json:"pages_scrubbed"`
	Retired       int    `json:"retired"`
	UBER          string `json:"uber"`
	WearMax       string `json:"wear_max"`
	Modes         string `json:"modes"`
	// CalibSteps renders the per-die calibration-cache state, e.g.
	// "5,0" for a worn die predicting step 5 next to a young one at
	// nominal references.
	CalibSteps string `json:"calib_steps"`
}

// summary projects the report onto its golden-fixture form.
type summary struct {
	Scenario string         `json:"scenario"`
	Seed     uint64         `json:"seed"`
	Phases   []phaseSummary `json:"phases"`
	Totals   struct {
		CorrectedBits int    `json:"corrected_bits"`
		Uncorrectable int    `json:"uncorrectable"`
		Retries       int    `json:"retries"`
		Recovered     int    `json:"recovered"`
		SoftRecovered int    `json:"soft_recovered"`
		LostBits      int64  `json:"lost_bits"`
		Retired       int    `json:"retired"`
		UBER          string `json:"uber"`
	} `json:"totals"`
}

// summarize builds the golden-fixture summary of the report.
func summarize(r *Report) summary {
	s := summary{Scenario: r.Scenario, Seed: r.Seed}
	for _, ph := range r.Phases {
		modes := ""
		for i, pp := range ph.Partitions {
			if i > 0 {
				modes += ","
			}
			modes += pp.Name + "=" + pp.Mode
		}
		calib := ""
		for i, st := range ph.CalibSteps {
			if i > 0 {
				calib += ","
			}
			calib += strconv.Itoa(st)
		}
		s.Phases = append(s.Phases, phaseSummary{
			Name:          ph.Name,
			HostReads:     ph.HostReads,
			HostWrites:    ph.HostWrites,
			CorrectedBits: ph.CorrectedBits,
			Uncorrectable: ph.UncorrectableReads,
			Retries:       ph.Retries,
			Recovered:     ph.RecoveredReads,
			SoftSenses:    ph.SoftSenses,
			SoftRecovered: ph.SoftRecovered,
			PagesScrubbed: ph.PagesScrubbed,
			Retired:       ph.RetiredBlocks,
			UBER:          fmt.Sprintf("%.3g", ph.UBER),
			WearMax:       fmt.Sprintf("%.3g", ph.WearMax),
			Modes:         modes,
			CalibSteps:    calib,
		})
	}
	s.Totals.CorrectedBits = r.Totals.CorrectedBits
	s.Totals.Uncorrectable = r.Totals.UncorrectableReads
	s.Totals.Retries = r.Totals.Retries
	s.Totals.Recovered = r.Totals.RecoveredReads
	s.Totals.SoftRecovered = r.Totals.SoftRecovered
	s.Totals.LostBits = r.Totals.LostBits
	s.Totals.Retired = r.Totals.RetiredBlocks
	s.Totals.UBER = fmt.Sprintf("%.3g", r.Totals.UBER)
	return s
}
