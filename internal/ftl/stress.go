package ftl

import (
	"fmt"
	"math"

	"xlnand/internal/controller"
)

// Aging advances at most this factor per step, the first step landing
// at the floor (fresh wear is too low for the factor to progress). The
// calibrated RBER grows roughly as cycles^0.75 near end of life, so a
// 1.6x step raises RBER ~1.45x: within the safety margin lifetime
// scenarios configure, which keeps pages decodable across a step.
const (
	ageStepFactor = 1.6
	ageStepFloor  = 1e3
)

// Age fast-forwards every block of the listed dies by delta P/E cycles
// in multiplicative steps counted from their most-worn block, calling
// refresh after each step; a refresh error aborts Age and is returned
// unchanged. One giant jump would strand cold pages with a capability
// sized for a much younger device and read them into decode failure, a
// fast-forward artifact. The refresh reproduces the gradual path the
// scrubber would have taken: it rewrites live pages at the new wear,
// with the capability the reliability manager now selects.
func (f *FTL) Age(dies []int, delta float64, refresh func() error) error {
	if !(delta >= 0) || math.IsInf(delta, 1) {
		return fmt.Errorf("ftl: invalid wear delta %g", delta)
	}
	d := f.Dispatcher()
	cur := 0.0
	for _, die := range dies {
		for blk := 0; blk < f.geo.BlocksPerDie; blk++ {
			c, err := d.Cycles(die, blk)
			if err != nil {
				return err
			}
			cur = max(cur, c)
		}
	}
	target := cur + delta
	for cur < target {
		next := min(max(cur*ageStepFactor, ageStepFloor), target)
		step := next - cur
		for _, die := range dies {
			for blk := 0; blk < f.geo.BlocksPerDie; blk++ {
				c, err := d.Cycles(die, blk)
				if err != nil {
					return err
				}
				if err := d.SetCycles(die, blk, c+step); err != nil {
					return err
				}
			}
		}
		cur = next
		if err := refresh(); err != nil {
			return err
		}
	}
	return nil
}

// Disturb performs n raw array reads (ECC bypassed) of the first page of
// every programmed block — read-disturb aggression outside the host
// path, run under each die's lock for exclusive device access. Every
// sense lands in one scratch buffer; only the stress it applies matters.
func (f *FTL) Disturb(n int) error {
	var buf []byte
	for die := 0; die < f.geo.Dies; die++ {
		err := f.Dispatcher().WithController(die, func(c *controller.Controller) {
			dev := c.Device()
			if buf == nil {
				cal := dev.Calibration()
				buf = make([]byte, cal.PageDataBytes+cal.PageSpareBytes)
			}
			for blk := 0; blk < dev.Blocks(); blk++ {
				for r := 0; r < n; r++ {
					if _, _, err := dev.ReadInto(blk, 0, 0, buf); err != nil {
						break // unwritten block: no stress to apply
					}
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
