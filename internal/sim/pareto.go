package sim

import (
	"sort"

	"xlnand/internal/nand"
)

// ExplorePoints evaluates the full cross-layer configuration grid
// (algorithm × capability) at one wear level. tStride > 1 thins the grid
// for display purposes.
func (e Env) ExplorePoints(cycles float64, tStride int) ([]OperatingPoint, error) {
	if tStride < 1 {
		tStride = 1
	}
	var out []OperatingPoint
	for _, alg := range []nand.Algorithm{nand.ISPPSV, nand.ISPPDV} {
		for t := e.TMin; t <= e.TMax; t += tStride {
			op, err := e.Evaluate(alg, t, cycles)
			if err != nil {
				return nil, err
			}
			out = append(out, op)
		}
	}
	return out, nil
}

// dominates reports whether a is at least as good as b on every axis the
// trade-off cares about (UBER down, read/write throughput up, total power
// down) and strictly better on at least one.
func dominates(a, b OperatingPoint) bool {
	type cmp struct{ a, b float64 }
	lowerBetter := []cmp{
		{a.UBER, b.UBER},
		{a.ProgramPowerW + a.ECCPowerW, b.ProgramPowerW + b.ECCPowerW},
	}
	higherBetter := []cmp{
		{a.ReadMBps, b.ReadMBps},
		{a.WriteMBps, b.WriteMBps},
	}
	strictly := false
	for _, c := range lowerBetter {
		if c.a > c.b {
			return false
		}
		if c.a < c.b {
			strictly = true
		}
	}
	for _, c := range higherBetter {
		if c.a < c.b {
			return false
		}
		if c.a > c.b {
			strictly = true
		}
	}
	return strictly
}

// ParetoFront filters points to the non-dominated set and orders it by
// descending read throughput — the menu of defensible operating points
// the controller can expose as service levels.
func ParetoFront(points []OperatingPoint) []OperatingPoint {
	var front []OperatingPoint
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].ReadMBps != front[j].ReadMBps {
			return front[i].ReadMBps > front[j].ReadMBps
		}
		return front[i].UBER < front[j].UBER
	})
	return front
}
