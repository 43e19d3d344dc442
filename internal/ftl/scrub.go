package ftl

import (
	"fmt"
	"sort"

	"xlnand/internal/controller"
)

// ScrubPolicy configures background data refresh: a page whose decode
// reports corrected errors at or above FractionOfT of the active
// capability — or that needed at least RetryAlarm recovery-ladder
// retries — marks its block for refresh; Scrub relocates such blocks'
// live data to fresh pages (healing read disturb and retention age, the
// stress mechanisms the device model accumulates).
type ScrubPolicy struct {
	// FractionOfT in (0, 1]: the corrected-errors alarm threshold as a
	// fraction of the capability the page was decoded with.
	FractionOfT float64
	// RetryAlarm marks a block for refresh when a read needed at least
	// this many recovery-ladder retries (0 disables retry-pressure
	// marking). A page paying the ladder is a page drifting toward
	// uncorrectable: relocating it re-centres its references for free.
	RetryAlarm int
	// DisturbRetryBudget is the reads-since-erase count past which a
	// block is considered near its read-disturb budget (0 disables the
	// guard). Every recovery-ladder re-sense — and every component
	// sense of a soft multi-sense read — is itself a disturb event, so
	// deep recovery walks on an already-stressed block push its
	// NEIGHBOURING pages toward the very failures the walk is trying to
	// fix. Past the budget, host reads are capped at DisturbRetryCap
	// hard retries (which also skips the soft multi-sense rung — it
	// only unlocks past the full hard ladder) and the block is marked
	// for scrub relocation instead: the refresh heals the disturb count
	// outright, where a deeper ladder would only have compounded it.
	DisturbRetryBudget float64
	// DisturbRetryCap is the per-read hard-retry budget applied past
	// DisturbRetryBudget (0 = single-shot).
	DisturbRetryCap int
}

// DefaultScrubPolicy alarms at 70% of the correction budget, or on any
// read that needed the recovery ladder; the disturb-aware retry guard
// engages at 50k reads since erase, capping stressed blocks at one
// re-sense and preferring early relocation.
func DefaultScrubPolicy() ScrubPolicy {
	return ScrubPolicy{FractionOfT: 0.7, RetryAlarm: 1, DisturbRetryBudget: 5e4, DisturbRetryCap: 1}
}

// ScrubReport summarises one scrub pass.
type ScrubReport struct {
	BlocksRefreshed int
	PagesMoved      int
	Uncorrectable   int
	// DeepRecovered counts pages the normal read lost during this pass
	// but the deep-retry recovery attempt saved.
	DeepRecovered int
}

// CheckReadHealth inspects a read result against the policy and records
// the page's block for refresh when the margin has thinned. It returns
// true when the block was newly marked.
func (f *FTL) CheckReadHealth(part string, lpa int, res *controller.ReadResult, pol ScrubPolicy) (bool, error) {
	if pol.FractionOfT <= 0 || pol.FractionOfT > 1 {
		return false, fmt.Errorf("ftl: scrub threshold %g outside (0,1]", pol.FractionOfT)
	}
	if pol.RetryAlarm < 0 {
		return false, fmt.Errorf("ftl: negative scrub retry alarm %d", pol.RetryAlarm)
	}
	if pol.DisturbRetryBudget < 0 || pol.DisturbRetryCap < 0 {
		return false, fmt.Errorf("ftl: negative disturb retry guard (%g, %d)",
			pol.DisturbRetryBudget, pol.DisturbRetryCap)
	}
	p, err := f.Partition(part)
	if err != nil {
		return false, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if lpa < 0 || lpa >= p.userPages || p.mapping[lpa] == invalidPPA {
		return false, fmt.Errorf("ftl: lpa %d not live in %q", lpa, part)
	}
	if p.mapping[lpa] == lostPPA {
		// The page's only copy was lost by a concurrent GC relocation
		// between the caller's read and this health check: nothing is
		// left to mark, and under concurrent scrub/host traffic that is
		// an ordinary interleaving, not a caller error.
		return false, nil
	}
	if res == nil {
		return false, nil
	}
	marginThin := float64(res.Corrected) >= pol.FractionOfT*float64(res.T)
	retryPressure := pol.RetryAlarm > 0 && res.Retries >= pol.RetryAlarm
	if !marginThin && !retryPressure {
		return false, nil
	}
	blk := p.mapping[lpa] / p.pages
	if p.scrubMarks == nil {
		p.scrubMarks = make(map[int]bool)
	}
	if p.scrubMarks[blk] {
		return false, nil
	}
	p.scrubMarks[blk] = true
	return true, nil
}

// PendingScrubs returns the number of blocks marked for refresh.
func (p *Partition) PendingScrubs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.scrubMarks)
}

// ScrubMarks returns the partition-local indices of the blocks currently
// marked for refresh, in ascending order (the order Scrub will process
// them in).
func (f *FTL) ScrubMarks(part string) ([]int, error) {
	p, err := f.Partition(part)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return sortedMarks(p.scrubMarks), nil
}

func sortedMarks(marks map[int]bool) []int {
	out := make([]int, 0, len(marks))
	for blk := range marks {
		out = append(out, blk)
	}
	sort.Ints(out)
	return out
}

// Scrub rewrites every live page of each marked block to fresh locations
// (new physical pages on a freshly-programmed block have zero retention
// age, and the victims' eventual erase clears their read-disturb count).
// Marked blocks are processed in ascending index order, so a scrub pass
// consumes the device's fault-injection streams identically across runs
// — the determinism contract lifetime scenarios depend on.
func (f *FTL) Scrub(part string) (ScrubReport, error) {
	var rep ScrubReport
	p, err := f.Partition(part)
	if err != nil {
		return rep, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	marks := sortedMarks(p.scrubMarks)
	p.scrubMarks = nil
	if f.trace != nil && len(marks) > 0 {
		scrubStart := f.vnow()
		defer func() {
			f.trace.Span2(traceTid, "scrub", scrubStart, f.vnow()-scrubStart,
				"blocks", int64(rep.BlocksRefreshed), "moved", int64(rep.PagesMoved))
		}()
	}
	for _, blk := range marks {
		bs := p.blocks[blk]
		if bs.livePages == 0 && bs.writePtr == 0 {
			continue // reclaimed by GC between mark and scrub
		}
		// Move the write frontier off the victim so relocated copies
		// land on a different block (otherwise the refresh would chase
		// its own writes and heal nothing).
		if p.active == blk && len(p.freePool) >= 2 {
			p.active = p.takeFree()
			nb := p.blocks[p.active]
			nb.writePtr = 0
		}
		deepBefore := p.DeepRecovered
		moved, uncorrectable, err := f.relocateLive(p, bs)
		rep.Uncorrectable += uncorrectable
		rep.DeepRecovered += p.DeepRecovered - deepBefore
		if err != nil {
			return rep, fmt.Errorf("ftl: scrub block %d: %w", bs.id, err)
		}
		if moved > 0 || bs.livePages == 0 {
			rep.BlocksRefreshed++
			rep.PagesMoved += moved
		}
		// A fully-dead non-frontier victim would strand outside the free
		// pool (GC only collects sealed blocks): erase and reclaim it now.
		if bs.livePages == 0 && blk != p.active && bs.writePtr > 0 && !bs.retired {
			if err := f.reclaim(p, blk); err != nil {
				return rep, err
			}
		}
	}
	return rep, nil
}
