package lifetime

import (
	"encoding/json"
	"fmt"
	"io"

	"xlnand/internal/controller"
)

// CorrectedHistBuckets is the number of power-of-two buckets in the
// corrected-bits-per-read histogram: 0, 1, 2-3, 4-7, 8-15, 16-31, 32-63,
// and 64+ (the last bucket also catches anything beyond the t=65 budget).
const CorrectedHistBuckets = 8

// CorrectedHist buckets corrected-error counts per read by powers of
// two. The fixed shape keeps report JSON stable across code changes.
type CorrectedHist [CorrectedHistBuckets]int

// Add records one read's corrected-error count.
func (h *CorrectedHist) Add(corrected int) {
	b := 0
	for corrected > 0 && b < CorrectedHistBuckets-1 {
		corrected >>= 1
		b++
	}
	h[b]++
}

// RetryHistBuckets is the number of buckets in the read-retry-depth
// histogram: retries 0..6 directly, 7+ collected in the last bucket.
// It mirrors the controller's manager-level histogram so the two "reads
// by retry depth" views can never drift apart.
const RetryHistBuckets = controller.RetryHistBuckets

// RetryHist buckets reads by the recovery-ladder retries they needed.
type RetryHist [RetryHistBuckets]int

// Add records one read's retry count.
func (h *RetryHist) Add(retries int) {
	if retries < 0 {
		retries = 0
	}
	if retries >= RetryHistBuckets {
		retries = RetryHistBuckets - 1
	}
	h[retries]++
}

// PartitionPhase is one partition's slice of a phase.
type PartitionPhase struct {
	Name string `json:"name"`
	Mode string `json:"mode"` // service level at the END of the phase

	Reads          int     `json:"reads"`
	Writes         int     `json:"writes"`
	CorrectedBits  int     `json:"corrected_bits"`
	CorrectedPerKB float64 `json:"corrected_per_kb"`
	Uncorrectable  int     `json:"uncorrectable"`
	// Retries counts the recovery-ladder re-senses the partition's reads
	// needed this phase; Recovered counts reads saved by the ladder.
	Retries       int     `json:"retries"`
	Recovered     int     `json:"recovered"`
	WearMin       float64 `json:"wear_min"`
	WearMax       float64 `json:"wear_max"`
	Retired       int     `json:"retired_blocks"` // cumulative
	DeepRecovered int     `json:"deep_recovered"` // cumulative
}

// PhaseReport is the time-series element of a run.
type PhaseReport struct {
	Name string `json:"name"`

	// Stress applied before the phase's traffic.
	AgeCycles    float64 `json:"age_cycles"`
	BakeHours    float64 `json:"bake_hours"`
	DisturbReads int     `json:"disturb_reads"`

	// Host traffic.
	HostReads  int `json:"host_reads"`
	HostWrites int `json:"host_writes"`
	// VerifyReads are the engine's post-scrub heal-check reads (not host
	// traffic, but they do stress the medium like any read).
	VerifyReads int `json:"verify_reads"`
	// RefreshReads/RefreshedPages are the stepped-aging maintenance
	// traffic: live data re-read and rewritten at the new wear after
	// each fast-forward step.
	RefreshReads   int `json:"refresh_reads"`
	RefreshedPages int `json:"refreshed_pages"`

	// Reliability.
	BitsRead           int64         `json:"bits_read"`
	CorrectedBits      int           `json:"corrected_bits"`
	CorrectedHist      CorrectedHist `json:"corrected_hist"`
	UncorrectableReads int           `json:"uncorrectable_reads"`
	LostBits           int64         `json:"lost_bits"`
	// Read-recovery climate: total ladder re-senses, the histogram of
	// reads by retry depth, reads the ladder saved from data loss, and
	// pages the FTL's deep-retry relocation attempt rescued.
	Retries        int       `json:"retries"`
	RetryHist      RetryHist `json:"retry_hist"`
	RecoveredReads int       `json:"recovered_reads"`
	// RelocRetries are the ladder re-senses paid by FTL relocation
	// reads (GC, scrub, retirement, deep-retry walks) this phase: they
	// never cross the host read path but occupy the same timeline.
	RelocRetries  int `json:"reloc_retries"`  // delta over the phase
	DeepRecovered int `json:"deep_recovered"` // delta over the phase
	// Soft-decision climate: component array senses the soft-sense rung
	// paid this phase, and verified reads only the soft-input decoder
	// could bring back (both 0 for hard-only codec families).
	SoftSenses    int `json:"soft_senses"`
	SoftRecovered int `json:"soft_recovered"`
	// CalibSteps is each die's predicted read-reference ladder step for
	// its most-worn blocks at phase end — the per-die calibration-cache
	// state (asymmetric wear makes the entries diverge).
	CalibSteps []int `json:"calib_steps"`
	// UBER is the phase's post-correction error rate: lost bits / bits
	// read (0 when nothing was read).
	UBER float64 `json:"uber"`

	// Maintenance traffic.
	ScrubPasses     int     `json:"scrub_passes"`
	BlocksRefreshed int     `json:"blocks_refreshed"`
	PagesScrubbed   int     `json:"pages_scrubbed"`
	GCMoves         int     `json:"gc_moves"` // delta over the phase
	Erases          int     `json:"erases"`   // delta over the phase
	RetiredBlocks   int     `json:"retired"`  // delta over the phase
	PendingScrubs   int     `json:"pending"`  // marks left at phase end
	WearMin         float64 `json:"wear_min"`
	WearMax         float64 `json:"wear_max"`

	// Performance on the modelled timeline.
	MakespanMS float64 `json:"makespan_ms"`
	ReadMBps   float64 `json:"read_mbps"`
	WriteMBps  float64 `json:"write_mbps"`

	Partitions []PartitionPhase `json:"partitions"`
}

// Totals aggregates the run.
type Totals struct {
	HostReads          int     `json:"host_reads"`
	HostWrites         int     `json:"host_writes"`
	BitsRead           int64   `json:"bits_read"`
	CorrectedBits      int     `json:"corrected_bits"`
	UncorrectableReads int     `json:"uncorrectable_reads"`
	LostBits           int64   `json:"lost_bits"`
	UBER               float64 `json:"uber"`
	Retries            int     `json:"retries"`
	RecoveredReads     int     `json:"recovered_reads"`
	RelocRetries       int     `json:"reloc_retries"`
	DeepRecovered      int     `json:"deep_recovered"`
	SoftSenses         int     `json:"soft_senses"`
	SoftRecovered      int     `json:"soft_recovered"`
	ScrubPasses        int     `json:"scrub_passes"`
	PagesScrubbed      int     `json:"pages_scrubbed"`
	GCMoves            int     `json:"gc_moves"`
	Erases             int     `json:"erases"`
	RetiredBlocks      int     `json:"retired_blocks"`
	FinalWearMax       float64 `json:"final_wear_max"`
}

// add folds one phase into the totals.
func (t *Totals) add(ph *PhaseReport) {
	t.HostReads += ph.HostReads
	t.HostWrites += ph.HostWrites
	t.BitsRead += ph.BitsRead
	t.CorrectedBits += ph.CorrectedBits
	t.UncorrectableReads += ph.UncorrectableReads
	t.LostBits += ph.LostBits
	t.Retries += ph.Retries
	t.RecoveredReads += ph.RecoveredReads
	t.RelocRetries += ph.RelocRetries
	t.DeepRecovered += ph.DeepRecovered
	t.SoftSenses += ph.SoftSenses
	t.SoftRecovered += ph.SoftRecovered
	t.ScrubPasses += ph.ScrubPasses
	t.PagesScrubbed += ph.PagesScrubbed
	t.GCMoves += ph.GCMoves
	t.Erases += ph.Erases
	t.RetiredBlocks += ph.RetiredBlocks
	t.FinalWearMax = max(t.FinalWearMax, ph.WearMax)
}

// finish derives the error rate from the folded counts: lost bits /
// bits read (0 when nothing was read).
func (t *Totals) finish() {
	if t.BitsRead > 0 {
		t.UBER = float64(t.LostBits) / float64(t.BitsRead)
	}
}

// Report is the full deterministic output of one scenario run.
type Report struct {
	Scenario     string        `json:"scenario"`
	Description  string        `json:"description"`
	Seed         uint64        `json:"seed"`
	Dies         int           `json:"dies"`
	BlocksPerDie int           `json:"blocks_per_die"`
	Phases       []PhaseReport `json:"phases"`
	Totals       Totals        `json:"totals"`
}

// JSON serialises the report with stable formatting; two runs of the
// same scenario and seed produce byte-identical output.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteTable renders a human-readable phase table.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "scenario %s (seed %d, %d dies x %d blocks)\n",
		r.Scenario, r.Seed, r.Dies, r.BlocksPerDie)
	fmt.Fprintf(w, "%-16s %8s %8s %10s %9s %7s %7s %7s %7s %7s %8s %9s %9s\n",
		"phase", "reads", "writes", "corrected", "uncorr", "retry", "recov", "soft", "scrub", "retired", "wearmax", "readMB/s", "UBER")
	for _, ph := range r.Phases {
		fmt.Fprintf(w, "%-16s %8d %8d %10d %9d %7d %7d %7d %7d %7d %8.0f %9.2f %9.2e\n",
			ph.Name, ph.HostReads, ph.HostWrites, ph.CorrectedBits, ph.UncorrectableReads,
			ph.Retries, ph.RecoveredReads, ph.SoftRecovered, ph.PagesScrubbed, ph.RetiredBlocks, ph.WearMax, ph.ReadMBps, ph.UBER)
	}
	t := r.Totals
	fmt.Fprintf(w, "%-16s %8d %8d %10d %9d %7d %7d %7d %7d %7d %8.0f %9s %9.2e\n",
		"TOTAL", t.HostReads, t.HostWrites, t.CorrectedBits, t.UncorrectableReads,
		t.Retries, t.RecoveredReads, t.SoftRecovered, t.PagesScrubbed, t.RetiredBlocks, t.FinalWearMax, "", t.UBER)
}
