// Package lifetime drives the full cross-layer stack — submission queue,
// multi-die dispatcher, FTL, controller, adaptive BCH codec and aging
// NAND devices — from fresh silicon to end of life under a deterministic
// scenario catalog. A scenario is a seeded, phase-structured device
// biography: each phase first applies stress (P/E fast-forward, a
// retention bake, raw read-disturb aggression) and then plays host
// traffic through the FTL while the background scrubber and a cross-layer
// mode policy react to the measured error climate.
//
// Every run is bit-reproducible: all randomness flows from the scenario
// seed through explicit stats.RNG streams, FTL traffic is submitted
// synchronously (one outstanding request), and the scrubber processes
// marked blocks in sorted order. Two runs of the same scenario with the
// same seed therefore produce byte-identical LifetimeReports — which is
// what lets the engine double as the repo's end-to-end soak harness:
// invariants (no lost writes, no silent corruption, monotone wear, scrub
// heals what it claims) are checked inside the run and fail loudly with
// the reproducing seed.
package lifetime

import (
	"fmt"
	"math"

	"xlnand/internal/ecc"
	"xlnand/internal/ftl"
	"xlnand/internal/obs"
	"xlnand/internal/sim"
)

// PartitionConfig declares one differentiated storage service of a
// scenario.
type PartitionConfig struct {
	Name   string
	Blocks int
	// Mode is the initial service level; a scenario Policy may retune it
	// between phases.
	Mode sim.Mode
	// WorkingSet is the number of distinct logical pages the workload
	// touches (0 means 3/4 of the partition capacity, which keeps the
	// garbage collector exercised without over-constraining it).
	WorkingSet int
}

// Phase is one segment of the device biography: stress first, then
// traffic.
type Phase struct {
	Name string

	// AgeCycles fast-forwards every block's program/erase count by this
	// many cycles before the phase's traffic (the Calibration.Age model
	// scales all wear-dependent variability from the new count).
	AgeCycles float64
	// AgeCyclesByDie, when non-nil, fast-forwards each die by its own
	// extra cycle count (index = die; missing entries age by 0) instead
	// of the uniform AgeCycles — the asymmetric-wear stress that makes
	// the per-die read-reference calibration caches diverge. Dies are
	// aged one at a time with the same stepped-refresh discipline.
	AgeCyclesByDie []float64
	// BakeHours advances the retention clock, baking every stored page.
	BakeHours float64
	// DisturbReads performs this many raw array reads (ECC bypassed) of
	// the first page of every programmed block on every die —
	// neighbouring-tenant read-disturb aggression outside the host path.
	DisturbReads int

	// Ops is the number of host operations to play.
	Ops int
	// ReadFraction in [0,1] is the probability a host op is a read.
	ReadFraction float64
}

// Scenario is one deterministic device biography.
type Scenario struct {
	Name        string
	Description string
	Seed        uint64

	Dies         int
	BlocksPerDie int

	Partitions []PartitionConfig
	Phases     []Phase

	// Scrub is the background refresh policy; ScrubEvery is the host-op
	// cadence of scrub passes (0 disables scrubbing; a pass also runs at
	// the end of every phase when enabled).
	Scrub      ftl.ScrubPolicy
	ScrubEvery int

	// WearCeiling retires blocks whose P/E count reaches it (0 disables
	// retirement).
	WearCeiling float64

	// MaxUBER is the invariant ceiling on the post-correction bit error
	// rate of the whole run (lost bits / bits read). 0 means no data
	// loss is tolerated at all.
	MaxUBER float64

	// ReadRetry sets the read-recovery ladder budget on every die.
	// CAUTION: the zero value means "controller default" (so scenario
	// literals need not spell it), NOT "no retries" — unlike
	// xlnand.WithReadRetry(0)/Request.Retries=&0, where 0 is the
	// single-shot path. Leave it zero for the controller default;
	// ReadRetrySingleShot (-1) disables staged recovery entirely (the
	// pre-recovery single-shot read at nominal references), and a
	// positive value allows that many re-senses at shifted read
	// references per failing read.
	ReadRetry int

	// Policy, when non-nil, retunes each partition's service level at
	// the end of every phase from the measured error climate.
	Policy Policy

	// Codec selects the ECC family behind every die's controller (the
	// zero value is the paper's adaptive BCH; ecc.FamilyLDPC swaps in
	// the soft-decision LDPC codec, whose soft-sense rung unlocks once
	// ReadRetry extends past the device's hard reference ladder).
	Codec ecc.Family

	// Trace, when non-nil, is the trace process this drive's engine
	// annotates: the dispatcher registers its bus/codec/die threads on
	// it, the FTL its maintenance thread, and the phase loop emits one
	// span per biography phase on the dispatcher's virtual clock. The
	// report schema is unaffected — tracing is a parallel export.
	Trace *obs.Proc
}

// safetyMargin is the reliability manager's RBER over-provisioning
// factor on every die of a biography, larger than the controller's
// default of 1.3: a fast-forwarded biography compresses months of
// gradual aging into a handful of steps, so the capability chosen at a
// step must still cover the RBER at the next one.
const safetyMargin = 1.7

// ReadRetrySingleShot is the Scenario.ReadRetry value that disables
// staged recovery: every read is the pre-recovery single sense at
// nominal references. The field's zero value keeps the controller's
// default ladder, so disabling recovery must be asked for by name.
const ReadRetrySingleShot = -1

// TotalOps returns the scenario's host-operation count across phases —
// the catalog's notion of "shortest".
func (sc Scenario) TotalOps() int {
	n := 0
	for _, ph := range sc.Phases {
		n += ph.Ops
	}
	return n
}

// Validate rejects malformed scenarios before any hardware is built.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("lifetime: scenario needs a name")
	}
	if sc.Dies < 1 || sc.BlocksPerDie < 1 {
		return fmt.Errorf("lifetime: %s: geometry %dx%d invalid", sc.Name, sc.Dies, sc.BlocksPerDie)
	}
	if len(sc.Partitions) == 0 {
		return fmt.Errorf("lifetime: %s: no partitions", sc.Name)
	}
	total := 0
	for _, pc := range sc.Partitions {
		if pc.Blocks < 2 {
			return fmt.Errorf("lifetime: %s: partition %q needs >= 2 blocks", sc.Name, pc.Name)
		}
		total += pc.Blocks
	}
	if total > sc.Dies*sc.BlocksPerDie {
		return fmt.Errorf("lifetime: %s: partitions need %d blocks, device has %d",
			sc.Name, total, sc.Dies*sc.BlocksPerDie)
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("lifetime: %s: no phases", sc.Name)
	}
	for _, ph := range sc.Phases {
		if ph.Ops < 0 || ph.ReadFraction < 0 || ph.ReadFraction > 1 {
			return fmt.Errorf("lifetime: %s: phase %q invalid", sc.Name, ph.Name)
		}
		if ph.AgeCycles < 0 || ph.BakeHours < 0 || ph.DisturbReads < 0 {
			return fmt.Errorf("lifetime: %s: phase %q has negative stress", sc.Name, ph.Name)
		}
		if math.IsNaN(ph.BakeHours) || math.IsInf(ph.BakeHours, 0) {
			return fmt.Errorf("lifetime: %s: phase %q bakes for %g hours", sc.Name, ph.Name, ph.BakeHours)
		}
		if len(ph.AgeCyclesByDie) > sc.Dies {
			return fmt.Errorf("lifetime: %s: phase %q ages %d dies, device has %d",
				sc.Name, ph.Name, len(ph.AgeCyclesByDie), sc.Dies)
		}
		for _, d := range ph.AgeCyclesByDie {
			if d < 0 {
				return fmt.Errorf("lifetime: %s: phase %q has negative per-die aging", sc.Name, ph.Name)
			}
		}
	}
	if sc.ScrubEvery < 0 {
		return fmt.Errorf("lifetime: %s: negative scrub cadence", sc.Name)
	}
	if sc.ScrubEvery > 0 && (sc.Scrub.FractionOfT <= 0 || sc.Scrub.FractionOfT > 1) {
		return fmt.Errorf("lifetime: %s: scrub threshold %g outside (0,1]", sc.Name, sc.Scrub.FractionOfT)
	}
	if sc.ScrubEvery > 0 && sc.Scrub.RetryAlarm < 0 {
		return fmt.Errorf("lifetime: %s: negative scrub retry alarm %d", sc.Name, sc.Scrub.RetryAlarm)
	}
	if sc.ReadRetry < -1 {
		return fmt.Errorf("lifetime: %s: read-retry budget %d below -1", sc.Name, sc.ReadRetry)
	}
	return nil
}

// Catalog returns the scenario catalog: four device biographies
// mirroring the root package's Example personas, each walking the stack
// from fresh silicon to end of life. All are sized to run in seconds
// while still crossing the wear range where the adaptive capability
// staircase, the scrubber and the mode policy all engage.
func Catalog() []Scenario {
	return []Scenario{
		ReadIntensiveArchive(),
		WriteHeavyLogging(),
		MixedMultiTenant(),
		MissionCriticalMinUBER(),
		ColdStorageDeepBake(),
		SoftDecisionLDPCArchive(),
	}
}

// CatalogScenario returns a catalog scenario by name.
func CatalogScenario(name string) (Scenario, error) {
	for _, sc := range Catalog() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("lifetime: unknown scenario %q", name)
}

// ShortestScenario returns the catalog entry with the fewest host
// operations — the CI smoke target.
func ShortestScenario() Scenario {
	cat := Catalog()
	best := cat[0]
	for _, sc := range cat[1:] {
		if sc.TotalOps() < best.TotalOps() {
			best = sc
		}
	}
	return best
}

// ReadIntensiveArchive is the multimedia-archive persona (§6.3.2): a
// cold fill, then long read-dominated phases with retention bakes and
// read-disturb aggression as the medium ages. The wear-ladder policy
// moves the partition to max-read once aging makes nominal decodes
// expensive — the paper's ≈30% read-throughput claim at end of life.
func ReadIntensiveArchive() Scenario {
	return Scenario{
		Name:        "read-archive",
		Description: "multimedia archive: fill once, stream under retention and read disturb",
		Seed:        42,
		Dies:        2, BlocksPerDie: 4,
		Partitions: []PartitionConfig{{Name: "archive", Blocks: 8, Mode: sim.ModeNominal}},
		Scrub:      ftl.DefaultScrubPolicy(),
		ScrubEvery: 150,
		MaxUBER:    1e-9,
		Policy:     DefaultWearLadder(),
		Phases: []Phase{
			{Name: "fill", Ops: 220, ReadFraction: 0.1},
			{Name: "young-stream", AgeCycles: 1e3, BakeHours: 200, Ops: 240, ReadFraction: 0.95},
			{Name: "mid-life-stream", AgeCycles: 9e3, BakeHours: 500, DisturbReads: 40, Ops: 240, ReadFraction: 0.95},
			// Crossing 1e5 cycles trips the wear ladder: the partition
			// streams its end of life in max-read mode.
			{Name: "late-stream", AgeCycles: 1.4e5, BakeHours: 200, DisturbReads: 40, Ops: 240, ReadFraction: 0.95},
			{Name: "eol-stream", AgeCycles: 8.5e5, BakeHours: 100, DisturbReads: 40, Ops: 220, ReadFraction: 0.95},
		},
	}
}

// WriteHeavyLogging is the logging/backup persona: a small hot working
// set rewritten continuously, so garbage collection and wear dominate
// and the wear ceiling starts retiring blocks near end of life.
func WriteHeavyLogging() Scenario {
	return Scenario{
		Name:        "write-logging",
		Description: "write-heavy logging: hot working set, GC churn, block retirement near EOL",
		Seed:        7,
		Dies:        2, BlocksPerDie: 4,
		Partitions: []PartitionConfig{{Name: "log", Blocks: 8, Mode: sim.ModeNominal, WorkingSet: 200}},
		Scrub:      ftl.DefaultScrubPolicy(),
		ScrubEvery: 200,
		// All blocks fast-forward uniformly, so the ceiling engages in
		// the last phase and the spare-block guard sheds a few blocks.
		WearCeiling: 9e5,
		MaxUBER:     1e-9,
		Policy:      DefaultWearLadder(),
		Phases: []Phase{
			{Name: "burn-in", Ops: 240, ReadFraction: 0.2},
			{Name: "steady-logging", AgeCycles: 1e4, Ops: 280, ReadFraction: 0.2},
			{Name: "eol-logging", AgeCycles: 9.4e5, BakeHours: 50, Ops: 240, ReadFraction: 0.25},
		},
	}
}

// MixedMultiTenant is the general-purpose persona: three tenants with
// different service levels sharing the array, balanced traffic, moderate
// stress between phases.
func MixedMultiTenant() Scenario {
	return Scenario{
		Name:        "mixed-tenants",
		Description: "three tenants (nominal / max-read / min-UBER) sharing the array",
		Seed:        1234,
		Dies:        3, BlocksPerDie: 4,
		Partitions: []PartitionConfig{
			{Name: "general", Blocks: 4, Mode: sim.ModeNominal},
			{Name: "stream", Blocks: 4, Mode: sim.ModeMaxRead},
			{Name: "vault", Blocks: 4, Mode: sim.ModeMinUBER},
		},
		Scrub:      ftl.DefaultScrubPolicy(),
		ScrubEvery: 180,
		MaxUBER:    1e-9,
		Phases: []Phase{
			{Name: "provision", Ops: 260, ReadFraction: 0.3},
			{Name: "mid-life", AgeCycles: 5e4, BakeHours: 300, DisturbReads: 25, Ops: 300, ReadFraction: 0.5},
			{Name: "late-life", AgeCycles: 4.5e5, BakeHours: 150, Ops: 260, ReadFraction: 0.5},
		},
	}
}

// MissionCriticalMinUBER is the secure-transaction persona (§6.3.1):
// min-UBER service from day one, aggressive scrubbing, zero tolerance
// for data loss across the whole life.
func MissionCriticalMinUBER() Scenario {
	return Scenario{
		Name:        "mission-critical",
		Description: "min-UBER service end to end: DV programming with SV-sized capability",
		Seed:        99,
		Dies:        2, BlocksPerDie: 3,
		Partitions: []PartitionConfig{{Name: "txn", Blocks: 6, Mode: sim.ModeMinUBER, WorkingSet: 160}},
		Scrub:      ftl.ScrubPolicy{FractionOfT: 0.5},
		ScrubEvery: 100,
		MaxUBER:    0, // any lost bit fails the run
		Phases: []Phase{
			{Name: "deploy", Ops: 200, ReadFraction: 0.4},
			{Name: "service", AgeCycles: 1e5, BakeHours: 250, Ops: 240, ReadFraction: 0.6},
			{Name: "eol-service", AgeCycles: 8e5, BakeHours: 100, Ops: 200, ReadFraction: 0.6},
		},
	}
}

// ColdStorageDeepBake is the cold-archive persona the read-recovery
// pipeline exists for: data written once and audited rarely, with
// multi-thousand-hour shelf time between audits. At end of life the
// bake pushes the raw error rate past even the worst-case capability,
// so audit reads fail single-shot and survive only through the staged
// retry ladder — the retry and recovered-read columns of this
// scenario's report are the acceptance evidence that recovery is
// threaded through the whole stack (and its read throughput visibly
// pays for the ladder walks).
func ColdStorageDeepBake() Scenario {
	return Scenario{
		Name:        "cold-storage",
		Description: "write-once cold archive: deep retention bakes between sparse audits, reads live on the retry ladder at EOL",
		Seed:        77,
		Dies:        2, BlocksPerDie: 3,
		Partitions: []PartitionConfig{{Name: "vault", Blocks: 6, Mode: sim.ModeNominal, WorkingSet: 128}},
		Scrub:      ftl.DefaultScrubPolicy(),
		ScrubEvery: 90,
		MaxUBER:    1e-9,
		Policy:     DefaultWearLadder(),
		Phases: []Phase{
			{Name: "ingest", Ops: 180, ReadFraction: 0.1},
			{Name: "shelf-audit", AgeCycles: 1e4, BakeHours: 3000, Ops: 160, ReadFraction: 0.9},
			{Name: "deep-shelf", AgeCycles: 9.9e5, BakeHours: 1e4, Ops: 160, ReadFraction: 0.95},
		},
	}
}

// SoftDecisionLDPCArchive is the beyond-datasheet cold-archive persona
// the LDPC family exists for: the device is aged and shelf-baked so far
// past its rating that the raw error count at EVERY hard read-reference
// shift exceeds what any hard-decision decode can repair — the regime
// where a BCH controller (t <= 65, full retry ladder) loses the medium
// outright. The LDPC controller, with the retry budget opened one rung
// past the hard ladder, survives on soft-sense reads: every deep-shelf
// audit walks the full hard ladder, fails, pays the multi-sense soft
// read and decodes through min-sum — so the report's soft-sense column
// is the acceptance evidence of the whole soft pipeline, and the phase
// read throughput visibly collapses under the extra senses and decode
// iterations.
func SoftDecisionLDPCArchive() Scenario {
	steps := 6 // nand.DefaultStressConfig().RetrySteps (kept literal: scenarios are data)
	return Scenario{
		Name:        "ldpc-soft-archive",
		Description: "soft-decision LDPC cold archive: aged past the BCH cliff, audits survive on multi-sense soft reads",
		Seed:        271,
		Dies:        1, BlocksPerDie: 4,
		Codec:      ecc.FamilyLDPC,
		Partitions: []PartitionConfig{{Name: "vault", Blocks: 4, Mode: sim.ModeNominal, WorkingSet: 48}},
		Scrub:      ftl.ScrubPolicy{FractionOfT: 0.7, RetryAlarm: 3},
		ScrubEvery: 80,
		MaxUBER:    1e-9,
		ReadRetry:  steps + 1, // one rung past the hard ladder: soft unlocked
		Phases: []Phase{
			{Name: "ingest", Ops: 120, ReadFraction: 0.15},
			{Name: "shelf-audit", AgeCycles: 1e4, BakeHours: 2500, Ops: 100, ReadFraction: 0.9},
			// Past the BCH cliff: raw RBER pins at the physical ceiling,
			// the best reference shift still leaves ~2x the strongest
			// hard-decision capability — only the soft rung reads back.
			{Name: "beyond-datasheet-shelf", AgeCycles: 2e7, BakeHours: 1e5, Ops: 90, ReadFraction: 0.95},
		},
	}
}

// AsymmetricDieWear is the golden regression scenario for per-die
// calibration-cache divergence: one die of a two-die array ages hard
// while the other stays young, a shared shelf bake drifts both, and the
// following audit reads teach each die's reliability manager its own
// read-reference offset — the report's per-die calibration column must
// show the caches diverging (worn die at a deep step, young die at or
// near nominal).
func AsymmetricDieWear() Scenario {
	return Scenario{
		Name:        "golden-asym",
		Description: "golden fixture: asymmetric per-die wear drives calibration-cache divergence",
		Seed:        616,
		Dies:        2, BlocksPerDie: 2,
		// The live set exceeds what the young die alone can hold (two
		// blocks = 128 pages), so data MUST keep occupying the worn die
		// by pigeonhole: the wear-levelling victim choice would otherwise
		// drain it entirely (low-wear blocks are preferred frontiers) and
		// the audit would never touch the climate this fixture pins.
		Partitions: []PartitionConfig{{Name: "p0", Blocks: 4, Mode: sim.ModeNominal, WorkingSet: 150}},
		Scrub:      ftl.ScrubPolicy{FractionOfT: 0.5, RetryAlarm: 2},
		ScrubEvery: 90,
		MaxUBER:    1e-8,
		Policy:     DefaultWearLadder(),
		Phases: []Phase{
			{Name: "fill", Ops: 420, ReadFraction: 0.05},
			// Die 0 takes three decades more wear than die 1; the bake
			// then drifts stored charge on both, but only die 0's climate
			// needs deep reference shifts.
			{Name: "asym-age", AgeCyclesByDie: []float64{9e5, 2e3}, BakeHours: 9e3, Ops: 130, ReadFraction: 0.85},
			{Name: "late-audit", BakeHours: 4e3, Ops: 110, ReadFraction: 0.9},
		},
	}
}

// GoldenShort returns the two canned regression scenarios whose report
// summaries are pinned as golden fixtures in testdata/: tiny biographies
// that still cross an aging step, a scrub pass and (for golden-churn) GC
// churn, so a perf PR that changes reliability behaviour anywhere in the
// stack moves the fixture.
func GoldenShort() []Scenario {
	return []Scenario{
		AsymmetricDieWear(),
		{
			Name:        "golden-stream",
			Description: "golden fixture: fill + aged streaming reads",
			Seed:        2024,
			Dies:        1, BlocksPerDie: 3,
			Partitions: []PartitionConfig{{Name: "p0", Blocks: 3, Mode: sim.ModeNominal, WorkingSet: 64}},
			// Alarm well below the default 0.7·t so the fixture also pins
			// scrub marking/refresh behaviour on a short run.
			Scrub:      ftl.ScrubPolicy{FractionOfT: 0.3},
			ScrubEvery: 60,
			MaxUBER:    1e-8,
			Policy:     DefaultWearLadder(),
			Phases: []Phase{
				{Name: "fill", Ops: 90, ReadFraction: 0.2},
				{Name: "aged-stream", AgeCycles: 2e5, BakeHours: 300, DisturbReads: 20, Ops: 110, ReadFraction: 0.9},
			},
		},
		{
			Name:        "golden-churn",
			Description: "golden fixture: overwrite churn across an aging step",
			Seed:        4096,
			Dies:        2, BlocksPerDie: 2,
			Partitions: []PartitionConfig{{Name: "p0", Blocks: 4, Mode: sim.ModeMinUBER, WorkingSet: 96}},
			Scrub:      ftl.ScrubPolicy{FractionOfT: 0.25},
			ScrubEvery: 70,
			MaxUBER:    1e-8,
			Phases: []Phase{
				{Name: "churn", Ops: 120, ReadFraction: 0.35},
				{Name: "aged-churn", AgeCycles: 3e5, BakeHours: 150, Ops: 100, ReadFraction: 0.5},
			},
		},
	}
}
