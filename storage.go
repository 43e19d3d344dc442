package xlnand

import (
	"time"

	"xlnand/internal/controller"
	"xlnand/internal/ftl"
)

// PartitionSpec declares one differentiated storage service: a share of
// the device's blocks bound to a cross-layer service level. This is the
// paper's §7 future work ("exposing differentiated storage services to
// applications") built on the cross-layer controller.
type PartitionSpec = ftl.PartitionSpec

// Storage is a flash translation layer over the sub-system: per-partition
// logical page spaces with out-of-place writes, garbage collection and
// wear-aware victim selection, each partition served at its own
// reliability/performance operating point.
type Storage struct {
	f *ftl.FTL
}

// NewStorage carves the sub-system's blocks (striped across its dies)
// into partitions. Every partition needs at least 2 blocks (one is
// over-provisioning for garbage collection); the total must fit the
// device.
func (s *Subsystem) NewStorage(specs []PartitionSpec) (*Storage, error) {
	f, err := ftl.New(s.disp, s.env, specs)
	if err != nil {
		return nil, err
	}
	return &Storage{f: f}, nil
}

// Write stores one logical page (PageSize bytes) into a partition.
func (st *Storage) Write(partition string, lpa int, data []byte) error {
	_, err := st.f.Write(partition, lpa, data)
	return err
}

// Read fetches one logical page through the partition's ECC path. The
// page and the result are the caller's to keep: later reads, from any
// goroutine, never overwrite them.
func (st *Storage) Read(partition string, lpa int) ([]byte, *controller.ReadResult, error) {
	return st.f.ReadInto(partition, lpa, nil)
}

// Trim drops a logical page, releasing its physical copy to garbage
// collection.
func (st *Storage) Trim(partition string, lpa int) error {
	return st.f.Trim(partition, lpa)
}

// PartitionStats reports one partition's service statistics.
type PartitionStats struct {
	Name               string
	Mode               Mode
	CapacityPages      int
	HostWrites         int
	HostReads          int
	GCMoves            int
	Erases             int
	Trims              int
	WriteAmplification float64
	ServiceTime        time.Duration
	WearMin, WearMax   float64
}

// Stats returns the statistics of every partition.
func (st *Storage) Stats() ([]PartitionStats, error) {
	var out []PartitionStats
	for _, p := range st.f.Partitions() {
		min, max, err := st.f.WearSpread(p.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, PartitionStats{
			Name:               p.Name,
			Mode:               p.Mode,
			CapacityPages:      p.Capacity(),
			HostWrites:         p.HostWrites,
			HostReads:          p.HostReads,
			GCMoves:            p.GCMoves,
			Erases:             p.Erases,
			Trims:              p.Trims,
			WriteAmplification: p.WriteAmplification(),
			ServiceTime:        p.ServiceTime,
			WearMin:            min,
			WearMax:            max,
		})
	}
	return out, nil
}

// AdvanceTime moves every die's retention clock forward (hours), baking
// every stored page — lifetime studies combine this with AgeBlock. Zero
// and negative hours leave the clocks alone; a non-finite duration is
// rejected, and so is any call after Close (ErrClosed).
func (s *Subsystem) AdvanceTime(hours float64) error {
	return s.disp.AdvanceTime(hours)
}

// ScrubPolicy configures background refresh: reads whose corrected-error
// count reaches FractionOfT of the decode capability mark their physical
// block for relocation.
type ScrubPolicy = ftl.ScrubPolicy

// ScrubReport summarises one scrub pass.
type ScrubReport = ftl.ScrubReport

// DefaultScrubPolicy alarms at 70% of the correction budget.
func DefaultScrubPolicy() ScrubPolicy { return ftl.DefaultScrubPolicy() }

// CheckReadHealth feeds a read result into the scrub policy, returning
// whether the page's block was newly marked for refresh.
func (st *Storage) CheckReadHealth(partition string, lpa int, res *controller.ReadResult, pol ScrubPolicy) (bool, error) {
	return st.f.CheckReadHealth(partition, lpa, res, pol)
}

// Scrub relocates the live data of every marked block in the partition
// to fresh pages, healing accumulated read disturb and retention age.
func (st *Storage) Scrub(partition string) (ScrubReport, error) {
	return st.f.Scrub(partition)
}
