package nand

import (
	"fmt"

	"xlnand/internal/stats"
)

// PageSim is the Monte-Carlo cell array for one flash page: every cell
// carries a persistent gate-coupling offset K (its manufacturing
// identity: geometry, oxide and doping variations, paper §5.1) and a
// current threshold voltage. Programming runs the real ISPP pulse train;
// reading applies retention shift, cell-to-cell interference and sensing
// noise before classifying against R1-R3.
//
// PageSim is not safe for concurrent use; it owns its RNG stream.
type PageSim struct {
	cal Calibration
	rng *stats.RNG

	k   []float64 // per-cell coupling offset VTH = VCG - K in steady state
	vth []float64 // current threshold voltage
	// programmed tracks the level each cell was last programmed to, so
	// reads can model retention shift proportionally.
	programmed []Level
	erased     bool

	// noiseScratch batches the per-cell sensing-noise draws of one read
	// so the classification sweep below runs free of RNG calls.
	noiseScratch []float64
}

// NewPageSim builds a page of cells cells with manufacturing variability
// drawn from the calibration's fresh distributions.
func NewPageSim(cal Calibration, cells int, rng *stats.RNG) *PageSim {
	if cells <= 0 {
		panic("nand: page must have at least one cell")
	}
	p := &PageSim{
		cal:        cal,
		rng:        rng,
		k:          make([]float64, cells),
		vth:        make([]float64, cells),
		programmed: make([]Level, cells),
	}
	for i := range p.k {
		p.k[i] = rng.NormMuSigma(cal.KOffsetMu, cal.KOffsetSigma)
	}
	return p
}

// Cells returns the number of cells on the page.
func (p *PageSim) Cells() int { return len(p.k) }

// VTHs returns a copy of all threshold voltages (for distribution
// inspection and Fig. 4/5 style analysis).
func (p *PageSim) VTHs() []float64 {
	return append([]float64(nil), p.vth...)
}

// Erase returns every cell to the L0 distribution (paper §5: "An Erase
// operation places all the cells within a block on the L0 level").
func (p *PageSim) Erase(aged AgedParams) {
	for i := range p.vth {
		p.vth[i] = p.rng.NormMuSigma(p.cal.EraseMu, aged.EraseSigma)
		p.programmed[i] = L0
	}
	p.erased = true
}

// Program runs the ISPP engine for the given per-cell target levels.
// The page must have been erased since the last Program; programming a
// non-erased page is a usage error (the controller enforces erase-before-
// program), reported rather than silently mis-simulated.
func (p *PageSim) Program(targets []Level, alg Algorithm, aged AgedParams) (ProgramResult, error) {
	if len(targets) != len(p.k) {
		return ProgramResult{}, fmt.Errorf("nand: %d targets for %d cells", len(targets), len(p.k))
	}
	if !p.erased {
		return ProgramResult{}, fmt.Errorf("nand: program on non-erased page")
	}
	p.erased = false
	res := runISPP(p, targets, alg, aged)
	p.applyCCI()
	for i, tgt := range targets {
		p.programmed[i] = tgt
	}
	return res, nil
}

// applyCCI models cell-to-cell interference: a fraction of each
// neighbour's programming swing couples onto the victim's floating gate
// (paper §5.1 "Cell-to-Cell interference caused by cross-talk between
// adjacent floating gates").
func (p *PageSim) applyCCI() {
	if p.cal.CCICoupling == 0 || len(p.vth) < 3 {
		return
	}
	// Walking left to right, only vth[i-1] has been disturbed by the time
	// cell i is visited, so a single rolling copy of the previous cell's
	// pre-CCI voltage replaces the full-page clone. The arithmetic below
	// is term-for-term the cloned version's, so trajectories are
	// bit-identical.
	prev := 0.0
	for i := range p.vth {
		cur := p.vth[i]
		var swing float64
		var nb int
		if i > 0 {
			swing += prev - p.cal.EraseMu
			nb++
		}
		if i < len(p.vth)-1 {
			swing += p.vth[i+1] - p.cal.EraseMu
			nb++
		}
		if nb > 0 {
			// Coupling is halved per neighbour; only positive swings
			// (programmed neighbours) disturb.
			s := swing / float64(nb)
			if s > 0 {
				p.vth[i] += p.cal.CCICoupling * s * 0.5 * p.rng.Float64()
			}
		}
		prev = cur
	}
}

// ReadLevelsInto senses every cell and classifies it into dst (which
// must hold Cells() levels) against the read references R1-R3 shifted
// by the per-boundary offset triple (the staged read-retry knob;
// ReadOffsets{} is the nominal read), applying the aged retention shift
// (programmed levels drift down) and sensing noise, and returns dst.
// The stored VTH is not modified: retention is modelled at read time so
// repeated reads at different ages reuse one programmed state.
//
// The retention shift per programmed level and the shifted R1-R3
// boundaries are hoisted out of the per-cell loop, the sensing-noise
// draws are batched into page-owned scratch in cell order (the RNG
// consumes exactly the stream the scalar path did, so every golden
// trajectory survives), and the classification itself is a branch-free
// sweep: level = (eff>=b0)+(eff>=b1)+(eff>=b2) as integer adds.
//
// The sum form is equivalent to the historical first-match switch
// (eff < r0 -> L0, eff < r1 -> L1, ...) only against non-decreasing
// boundaries, and a read-retry offset triple may produce any ordering
// of r0..r2 — so the sweep classifies against the running maxima
// b0 <= b1 <= b2, which reproduce first-match semantics exactly for
// every finite input.
func (p *PageSim) ReadLevelsInto(dst []Level, aged AgedParams, off ReadOffsets) []Level {
	if len(dst) != len(p.vth) {
		panic(fmt.Sprintf("nand: ReadLevelsInto dst %d for %d cells", len(dst), len(p.vth)))
	}
	// Higher levels store more charge and leak proportionally more.
	var shift [numLevels]float64
	for l := L1; l < numLevels; l++ {
		shift[l] = aged.RetShift * (1 + 0.5*float64(l-1))
	}
	b0 := p.cal.Read[0] + off[0]
	b1 := p.cal.Read[1] + off[1]
	b2 := p.cal.Read[2] + off[2]
	if b1 < b0 {
		b1 = b0
	}
	if b2 < b1 {
		b2 = b1
	}
	noise := aged.ReadNoise
	if cap(p.noiseScratch) < len(p.vth) {
		p.noiseScratch = make([]float64, len(p.vth))
	}
	ns := p.noiseScratch[:len(p.vth)]
	for i := range ns {
		ns[i] = p.rng.NormMuSigma(0, noise)
	}
	prog := p.programmed
	for i, v := range p.vth {
		eff := v - shift[prog[i]] + ns[i]
		dst[i] = Level(b2u(eff >= b0) + b2u(eff >= b1) + b2u(eff >= b2))
	}
	return dst
}

// b2u is the branch-free comparison accumulator of the classification
// sweep (compiles to a flag set, not a jump).
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
