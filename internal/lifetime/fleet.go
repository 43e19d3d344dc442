package lifetime

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"xlnand/internal/ftl"
	"xlnand/internal/obs"
	"xlnand/internal/sim"
)

// FleetScenario drives N identical drives through a shared phase
// schedule: every drive plays the Base biography with its own seed
// (ftl.DriveSeed(Seed, drive)), so the fleet ages in lock-step while
// each drive's fault history stays statistically independent.
type FleetScenario struct {
	Name        string
	Description string
	// Seed is the fleet master seed; drive i runs Base with
	// ftl.DriveSeed(Seed, i) (Base.Seed is ignored).
	Seed   uint64
	Drives int
	Base   Scenario
	// FailStops kills drives mid-biography: each entry truncates one
	// drive's run after the named phase, modelling a fail-stop fault.
	// The dead drive contributes nothing to later phases and is marked
	// "dead" in the merged result.
	FailStops []FleetFailStop
	// Trace, when non-nil, collects every drive's virtual-time spans:
	// drive i becomes trace process i ("drive i"), with its dispatcher,
	// FTL and phase threads inside. The export is byte-identical per
	// seed regardless of worker scheduling (processes serialize sorted
	// by pid; each drive appends only to its own streams).
	Trace *obs.Tracer
}

// fleetWorkers caps the drive engines RunFleet runs at once. The merge
// is byte-identical for any cap.
const fleetWorkers = 16

// FleetFailStop is one scheduled mid-biography drive death.
type FleetFailStop struct {
	// Drive is the slot to kill (0-based fleet index).
	Drive int
	// AfterPhase is the last phase the drive completes (0-based index
	// into Base.Phases); the drive fail-stops before the next one.
	AfterPhase int
}

// Validate rejects malformed fleet scenarios.
func (fs FleetScenario) Validate() error {
	if fs.Name == "" {
		return fmt.Errorf("lifetime: fleet scenario needs a name")
	}
	if fs.Drives < 1 {
		return fmt.Errorf("lifetime: fleet %s: need >= 1 drive, got %d", fs.Name, fs.Drives)
	}
	killed := make(map[int]bool, len(fs.FailStops))
	for _, k := range fs.FailStops {
		if k.Drive < 0 || k.Drive >= fs.Drives {
			return fmt.Errorf("lifetime: fleet %s: fail-stop drive %d out of range [0,%d)", fs.Name, k.Drive, fs.Drives)
		}
		if k.AfterPhase < 0 || k.AfterPhase >= len(fs.Base.Phases) {
			return fmt.Errorf("lifetime: fleet %s: fail-stop after phase %d, scenario has %d", fs.Name, k.AfterPhase, len(fs.Base.Phases))
		}
		if killed[k.Drive] {
			return fmt.Errorf("lifetime: fleet %s: drive %d fail-stops twice", fs.Name, k.Drive)
		}
		killed[k.Drive] = true
	}
	return fs.Base.Validate()
}

// FleetPhase is one shared schedule slot merged across every drive:
// counters sum, wear takes the fleet-wide extremes.
type FleetPhase struct {
	Name               string  `json:"name"`
	HostReads          int     `json:"host_reads"`
	HostWrites         int     `json:"host_writes"`
	CorrectedBits      int     `json:"corrected_bits"`
	UncorrectableReads int     `json:"uncorrectable_reads"`
	LostBits           int64   `json:"lost_bits"`
	Retries            int     `json:"retries"`
	RecoveredReads     int     `json:"recovered_reads"`
	SoftSenses         int     `json:"soft_senses"`
	SoftRecovered      int     `json:"soft_recovered"`
	PagesScrubbed      int     `json:"pages_scrubbed"`
	RetiredBlocks      int     `json:"retired"`
	WearMin            float64 `json:"wear_min"`
	WearMax            float64 `json:"wear_max"`
	UBER               float64 `json:"uber"`
}

// FleetDrive is one drive's compact slice of the fleet result.
type FleetDrive struct {
	Drive  int    `json:"drive"`
	Seed   uint64 `json:"seed"`
	Totals Totals `json:"totals"`
	// Health is "dead" for a fail-stopped drive (empty = healthy);
	// PhasesRun counts the phases it completed before dying (always
	// >= 1 for a killed drive, omitted for healthy ones).
	Health    string `json:"health,omitempty"`
	PhasesRun int    `json:"phases_run,omitempty"`
}

// FleetResult is the deterministic merged output of a fleet run: the
// per-drive reports reduced to totals (in drive-index order) plus the
// shared phase series and fleet-wide climate.
type FleetResult struct {
	Name        string       `json:"fleet"`
	Description string       `json:"description"`
	Scenario    string       `json:"scenario"`
	Seed        uint64       `json:"seed"`
	Drives      int          `json:"drives"`
	PerDrive    []FleetDrive `json:"per_drive"`
	Phases      []FleetPhase `json:"phases"`
	Totals      Totals       `json:"totals"`
}

// JSON serialises the fleet result with stable formatting: two runs of
// the same fleet scenario and seed are byte-identical.
func (r *FleetResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteTable renders a human-readable fleet phase table.
func (r *FleetResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "fleet %s: %d x %s (seed %d)\n", r.Name, r.Drives, r.Scenario, r.Seed)
	fmt.Fprintf(w, "%-24s %9s %9s %11s %9s %8s %8s %8s %9s\n",
		"phase", "reads", "writes", "corrected", "uncorr", "retry", "recov", "soft", "UBER")
	for _, ph := range r.Phases {
		fmt.Fprintf(w, "%-24s %9d %9d %11d %9d %8d %8d %8d %9.2e\n",
			ph.Name, ph.HostReads, ph.HostWrites, ph.CorrectedBits, ph.UncorrectableReads,
			ph.Retries, ph.RecoveredReads, ph.SoftRecovered, ph.UBER)
	}
	t := r.Totals
	fmt.Fprintf(w, "%-24s %9d %9d %11d %9d %8d %8d %8d %9.2e\n",
		"TOTAL", t.HostReads, t.HostWrites, t.CorrectedBits, t.UncorrectableReads,
		t.Retries, t.RecoveredReads, t.SoftRecovered, t.UBER)
	for _, d := range r.PerDrive {
		if d.Health == "dead" {
			fmt.Fprintf(w, "drive %03d: fail-stopped after %d/%d phases\n",
				d.Drive, d.PhasesRun, len(r.Phases))
		}
	}
}

// RunFleet plays a fleet scenario: up to fleetWorkers drive engines run
// concurrently, each a fully independent stack, and the merge happens
// only after every drive finishes — strictly in drive-index order, so
// the result is byte-identical per seed regardless of scheduling.
func RunFleet(fs FleetScenario) (*FleetResult, error) {
	if err := fs.Validate(); err != nil {
		return nil, err
	}
	killAfter := make(map[int]int, len(fs.FailStops))
	for _, k := range fs.FailStops {
		killAfter[k.Drive] = k.AfterPhase
	}
	reports := make([]*Report, fs.Drives)
	errs := make([]error, fs.Drives)
	sem := make(chan struct{}, min(fs.Drives, fleetWorkers))
	var wg sync.WaitGroup
	for i := 0; i < fs.Drives; i++ {
		wg.Add(1)
		// Trace processes are minted on the main goroutine so drive 0's
		// proc exists before any worker races to register threads on it.
		var proc *obs.Proc
		if fs.Trace != nil {
			proc = fs.Trace.Process(int32(i), fmt.Sprintf("drive %d", i))
		}
		go func(idx int, proc *obs.Proc) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sc := fs.Base
			sc.Seed = ftl.DriveSeed(fs.Seed, idx)
			sc.Name = fmt.Sprintf("%s/drive%03d", fs.Name, idx)
			sc.Trace = proc
			if after, ok := killAfter[idx]; ok {
				// A fail-stopped drive plays its biography only up to
				// the kill point; truncating the schedule IS the fault
				// model — nothing it would have done afterwards exists.
				sc.Phases = sc.Phases[:after+1]
			}
			reports[idx], errs[idx] = Run(sc)
		}(i, proc)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("lifetime: fleet %s: drive %d: %w", fs.Name, i, err)
		}
	}
	return mergeFleet(fs, reports), nil
}

// mergeFleet folds per-drive reports into the fleet result. Reports
// arrive indexed by drive, never by completion order.
func mergeFleet(fs FleetScenario, reports []*Report) *FleetResult {
	res := &FleetResult{
		Name:        fs.Name,
		Description: fs.Description,
		Scenario:    fs.Base.Name,
		Seed:        fs.Seed,
		Drives:      fs.Drives,
		Phases:      make([]FleetPhase, len(fs.Base.Phases)),
	}
	for pi, ph := range fs.Base.Phases {
		res.Phases[pi].Name = ph.Name
	}
	// Each phase folds like a run's totals; WearMin is the minimum over
	// the drives that ran the phase.
	phases := make([]Totals, len(res.Phases))
	ran := make([]bool, len(res.Phases))
	for di, rep := range reports {
		fd := FleetDrive{Drive: di, Seed: rep.Seed, Totals: rep.Totals}
		if len(rep.Phases) < len(res.Phases) {
			// A truncated report means RunFleet fail-stopped this drive:
			// it completed only its own phases, then died.
			fd.Health = "dead"
			fd.PhasesRun = len(rep.Phases)
		}
		res.PerDrive = append(res.PerDrive, fd)
		for pi := range rep.Phases {
			ph := &rep.Phases[pi]
			phases[pi].add(ph)
			res.Totals.add(ph)
			m := &res.Phases[pi]
			if !ran[pi] || ph.WearMin < m.WearMin {
				m.WearMin = ph.WearMin
			}
			ran[pi] = true
		}
	}
	// Per-phase and fleet UBER come from merged counts rather than
	// averaging per-drive rates.
	res.Totals.finish()
	for pi := range phases {
		t := &phases[pi]
		t.finish()
		m := &res.Phases[pi]
		m.HostReads, m.HostWrites = t.HostReads, t.HostWrites
		m.CorrectedBits, m.UncorrectableReads, m.LostBits = t.CorrectedBits, t.UncorrectableReads, t.LostBits
		m.Retries, m.RecoveredReads = t.Retries, t.RecoveredReads
		m.SoftSenses, m.SoftRecovered = t.SoftSenses, t.SoftRecovered
		m.PagesScrubbed, m.RetiredBlocks = t.PagesScrubbed, t.RetiredBlocks
		m.WearMax, m.UBER = t.FinalWearMax, t.UBER
	}
	return res
}

// FleetSmoke is the CI fleet scenario: sixteen drives of a tiny
// two-phase biography that still crosses an aging step and a scrub
// pass per drive — small enough for the race detector, wide enough to
// exercise the concurrent merge.
func FleetSmoke() FleetScenario {
	return FleetScenario{
		Name:        "fleet-smoke",
		Description: "16-drive smoke fleet: fill + aged stream per drive",
		Seed:        31337,
		Drives:      16,
		Base:        fleetBase(),
	}
}

// FleetSoak is the hundreds-of-drives catalog scenario the word-parallel
// kernels exist for: 128 drives play a compressed three-phase biography
// (fill, mid-life churn, end-of-life audit) concurrently, with three
// scheduled fail-stops standing in for the drive deaths a parity layer
// would absorb at this fleet width. The merge is byte-deterministic per
// seed — TestFleetSoakDeterminism pins it — and the run is sized so a
// single soak completes in tens of seconds on the fast read path.
func FleetSoak() FleetScenario {
	return FleetScenario{
		Name:        "fleet-soak",
		Description: "128-drive parity-fleet soak: compressed fill/mid-life/EOL biography per drive, three mid-life fail-stops",
		Seed:        90125,
		Drives:      128,
		Base:        soakBase(),
		FailStops: []FleetFailStop{
			{Drive: 17, AfterPhase: 0},
			{Drive: 63, AfterPhase: 1},
			{Drive: 101, AfterPhase: 1},
		},
	}
}

// soakBase is the compressed per-drive biography of the soak fleet: the
// golden-stream shape extended by an end-of-life audit phase, so every
// drive crosses two aging steps and a retention bake while staying small
// enough that 128 of them finish quickly.
func soakBase() Scenario {
	return Scenario{
		Name:        "soak-base",
		Description: "compressed soak biography: fill, mid-life churn, end-of-life audit",
		Dies:        1, BlocksPerDie: 3,
		Partitions: []PartitionConfig{{Name: "p0", Blocks: 3, Mode: sim.ModeNominal, WorkingSet: 64}},
		Scrub:      ftl.ScrubPolicy{FractionOfT: 0.3},
		ScrubEvery: 60,
		MaxUBER:    1e-8,
		Phases: []Phase{
			{Name: "fill", Ops: 70, ReadFraction: 0.2},
			{Name: "mid-life", AgeCycles: 2e5, BakeHours: 300, Ops: 80, ReadFraction: 0.6},
			{Name: "eol-audit", AgeCycles: 3e5, BakeHours: 200, Ops: 70, ReadFraction: 0.9},
		},
	}
}

// fleetBase is the per-drive biography fleet scenarios share: a
// compact fill + aged-stream pair (the golden-stream shape, reseeded
// per drive by RunFleet).
func fleetBase() Scenario {
	return Scenario{
		Name:        "fleet-base",
		Description: "per-drive fleet biography: fill, then aged streaming reads",
		Dies:        1, BlocksPerDie: 3,
		Partitions: []PartitionConfig{{Name: "p0", Blocks: 3, Mode: sim.ModeNominal, WorkingSet: 64}},
		Scrub:      ftl.ScrubPolicy{FractionOfT: 0.3},
		ScrubEvery: 60,
		MaxUBER:    1e-8,
		Phases: []Phase{
			{Name: "fill", Ops: 90, ReadFraction: 0.2},
			{Name: "aged-stream", AgeCycles: 2e5, BakeHours: 300, Ops: 110, ReadFraction: 0.9},
		},
	}
}
