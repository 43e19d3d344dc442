package nand

import (
	"fmt"
	"math"
	"time"
)

// This file models soft-sense reads: the multi-sense confidence
// mechanism behind soft-decision ECC (Cai et al., "Errors in Flash-
// Memory-Based Solid-State Drives", arXiv:1711.11427 §6; Luo's
// architectural-techniques survey, arXiv:1808.04016). When hard
// re-reads at shifted references stop helping, the controller senses
// the page several more times at references bracketing each read
// boundary. A cell whose component senses disagree sits *between* the
// bracketing references — close to a boundary, hence unreliable —
// while a cell that reads identically everywhere is firmly inside a
// V_TH distribution. The per-cell agreement pattern quantises into a
// log-likelihood ratio a soft-input decoder (LDPC min-sum) consumes,
// recovering roughly another order of magnitude of raw bit errors
// beyond the hard-decision ladder.
//
// The analytic model mirrors the staged-retry layer above: the hard
// decisions come from one center sense at the requested ladder step
// (exactly ReadInto's error process), and the bracketing senses are
// modelled by their information content — a misread cell is flagged
// low-confidence with probability SoftCapture (drifted cells sit near
// the boundary that misclassified them), a correctly-read cell with
// probability SoftFalseWeak. Every component sense pays one tR and one
// read-disturb count; the time and stress cost of soft information is
// real even though the component senses themselves are folded into the
// confidence statistics.

// Soft-read LLR quantisation: the device reports per-bit confidence as
// a signed magnitude (positive = bit 0, the erased-side convention).
const (
	// SoftStrongLLR is the magnitude of a bit all component senses
	// agree on.
	SoftStrongLLR = 7
	// SoftWeakLLR is the magnitude of a bit whose component senses
	// disagree (the cell sits between bracketing references).
	SoftWeakLLR = 1
)

// ReadSoftN is the multi-sense soft read at an explicit width: it
// senses the page `senses` times around retry ladder step (clamped to
// StressConfig.SoftSensesMax when that cap is set), writes the center
// sense's hard decisions into buf (data followed by spare — the same
// codeword layout as ReadInto) and one signed confidence value per
// codeword bit into llr (positive = bit 0; magnitude SoftStrongLLR or
// SoftWeakLLR). buf must hold the codeword and llr one int8 per
// codeword bit. Every component sense counts against the block's
// read-disturb stress and pays one tR; the returned senses count lets
// the controller charge the full sensing time on its timeline.
//
// Widening the read adds bracket pairs around the center reference
// ((senses-1)/2 pairs): each extra pair samples one reference step
// further out, so the center rides the best of a wider ladder window
// and an error cell missed by the inner brackets gets another chance
// to be flagged low-confidence — capture and false-weak probabilities
// compound per pair. This is the escalation path a controller walks
// (3→5→7) as min-sum keeps failing.
func (d *Device) ReadSoftN(blockIdx, pageIdx, step, senses int, buf []byte, llr []int8) (nData, nSpare int, sensesOut int, err error) {
	p, b, err := d.pageAt(blockIdx, pageIdx)
	if err != nil {
		return 0, 0, 0, err
	}
	if !p.written {
		return 0, 0, 0, fmt.Errorf("nand: soft read of unwritten page %d.%d", blockIdx, pageIdx)
	}
	if step < 0 {
		return 0, 0, 0, fmt.Errorf("nand: negative read-retry step %d", step)
	}
	nData, nSpare = len(p.data), len(p.spare)
	if len(buf) < nData+nSpare {
		return 0, 0, 0, fmt.Errorf("nand: soft-read buffer %d bytes, page %d.%d needs %d",
			len(buf), blockIdx, pageIdx, nData+nSpare)
	}
	nbits := (nData + nSpare) * 8
	if len(llr) < nbits {
		return 0, 0, 0, fmt.Errorf("nand: soft-read LLR buffer %d entries, page %d.%d needs %d",
			len(llr), blockIdx, pageIdx, nbits)
	}
	if senses < 1 {
		senses = 1
	}
	if max := d.stress.SoftSensesMax; max > 0 && senses > max {
		senses = max
	}
	pairs := (senses - 1) / 2
	b.reads += float64(senses)
	// The component senses bracket the center reference (steps step-p..
	// step+p on the calibrated ladder), and the per-cell majority across
	// them supplies the hard decisions — so the effective error rate is
	// the best of the bracketed steps, which is what makes the soft read
	// robust to an imperfectly calibrated center (and wider reads robust
	// to a center that is further off).
	retention := d.clockHours - p.writtenAtHours
	rber := d.cal.RecoveredRBER(d.stress, p.alg, b.cycles, b.reads, retention, step)
	for s := step - pairs; s <= step+pairs; s++ {
		if s == step || s < 0 || s > d.stress.RetrySteps {
			continue
		}
		if r := d.cal.RecoveredRBER(d.stress, p.alg, b.cycles, b.reads, retention, s); r < rber {
			rber = r
		}
	}
	// Each bracket pair gets an independent shot at flagging a cell
	// low-confidence, so the probabilities compound per pair. The
	// single-pair case keeps the raw constants bit-for-bit (no Pow
	// round-trip), preserving legacy RNG-stream-sensitive fixtures.
	capture, falseWeak := d.stress.SoftCapture, d.stress.SoftFalseWeak
	if pairs > 1 {
		capture = 1 - math.Pow(1-capture, float64(pairs))
		falseWeak = 1 - math.Pow(1-falseWeak, float64(pairs))
	}

	// Center sense: the hard decisions, with the error positions kept so
	// the bracketing senses' information content can be attached.
	copy(buf[:nData], p.data)
	copy(buf[nData:nData+nSpare], p.spare)
	nerr := d.rng.Binomial(nbits, rber)
	d.errPos = d.rng.SampleKAppend(d.errPos[:0], nbits, nerr)
	errPos := d.errPos
	for _, pos := range errPos {
		buf[pos/8] ^= 1 << uint(7-pos%8)
	}

	// Confidence: strong by default, signed by the center sense's hard
	// decision (bit 0 reads positive).
	for i := 0; i < nbits; i++ {
		if buf[i/8]&(1<<uint(7-i%8)) == 0 {
			llr[i] = SoftStrongLLR
		} else {
			llr[i] = -SoftStrongLLR
		}
	}
	weaken := func(pos int) {
		if llr[pos] > 0 {
			llr[pos] = SoftWeakLLR
		} else {
			llr[pos] = -SoftWeakLLR
		}
	}
	// Misread cells sit near the boundary that misclassified them: the
	// bracketing senses catch most of them.
	for _, pos := range errPos {
		if d.rng.Bernoulli(capture) {
			weaken(pos)
		}
	}
	// And some correctly-read cells legitimately live near a boundary.
	// errPos is dead past this point, so its scratch is recycled.
	nFalse := d.rng.Binomial(nbits, falseWeak)
	d.errPos = d.rng.SampleKAppend(d.errPos[:0], nbits, nFalse)
	for _, pos := range d.errPos {
		weaken(pos)
	}

	d.lastOpDuration = time.Duration(senses) * PageReadTime
	return nData, nSpare, senses, nil
}
