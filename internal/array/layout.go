package array

import "fmt"

// Redundancy modes.
const (
	// RedundancyNone stripes with no cross-drive protection.
	RedundancyNone = "none"
	// RedundancyParity rotates RAID-5 parity across the stripe: N-1
	// data chunks plus one parity chunk per row, parity drive = row mod N.
	RedundancyParity = "parity"
	// RedundancyMirror pairs drives (2k, 2k+1) as RAID-1 copies.
	RedundancyMirror = "mirror"
)

// maxCopies bounds how many members hold one page.
const maxCopies = 2

// layout is the pure address map of one redundancy scheme (see the
// package comment for its contract): it holds no run-time state.
type layout struct {
	name   string
	slots  int  // array members
	sp     int  // stripe unit in pages
	copies int  // members holding each page (2 = mirrored pairs)
	parity bool // one rotating derived (XOR) chunk per stripe row
}

// newLayout resolves Config.Redundancy against the array shape; the mode
// name is interpreted nowhere else.
func newLayout(mode string, drives, stripePages int) (layout, error) {
	l := layout{name: mode, slots: drives, sp: stripePages, copies: 1}
	switch mode {
	case "", RedundancyNone:
		l.name = RedundancyNone
	case RedundancyParity:
		if drives < 3 {
			return l, fmt.Errorf("array: parity redundancy needs >= 3 drives, got %d", drives)
		}
		l.parity = true
	case RedundancyMirror:
		if drives < 2 || drives%2 != 0 {
			return l, fmt.Errorf("array: mirror redundancy needs an even drive count >= 2, got %d", drives)
		}
		l.copies = 2
	default:
		return l, fmt.Errorf("array: unknown redundancy mode %q", mode)
	}
	return l, nil
}

// redundant reports whether any chunk can be rebuilt from others.
func (l layout) redundant() bool { return l.parity || l.copies > 1 }

// dataSlots is how many distinct data chunks one stripe row holds.
func (l layout) dataSlots() int {
	ds := l.slots / l.copies
	if l.parity {
		ds--
	}
	return ds
}

// locate maps a volume page to its primary (slot, drive-local LPA).
func (l layout) locate(page int) (slot, lpa int) {
	stripe, off := page/l.sp, page%l.sp
	ds := l.dataSlots()
	row, k := stripe/ds, stripe%ds
	slot = k * l.copies
	if l.parity && slot >= row%l.slots {
		slot++ // data chunks skip the row's parity slot
	}
	return slot, row*l.sp + off
}

// homes lists every slot that stores the page itself, primary first: a
// write must reach them all and a read may be served by any of them.
func (l layout) homes(page int) (lpa int, slots [maxCopies]int, n int) {
	slot, lpa := l.locate(page)
	for c := 0; c < l.copies; c++ {
		slots[c] = slot + c
	}
	return lpa, slots, l.copies
}

// pageOf inverts locate: the volume page stored on slot at lpa (mirror
// partners resolve to the page they copy), or -1 for a derived chunk.
func (l layout) pageOf(slot, lpa int) int {
	row, off := lpa/l.sp, lpa%l.sp
	if l.parity {
		switch pd := row % l.slots; {
		case slot == pd:
			return -1
		case slot > pd:
			slot--
		}
	}
	return (row*l.dataSlots()+slot/l.copies)*l.sp + off
}

// derived is the slot whose chunk at lpa is computed from the row's data
// chunks (the parity a write at that lpa dirties), or -1.
func (l layout) derived(lpa int) int {
	if !l.parity {
		return -1
	}
	return lpa / l.sp % l.slots
}

// peers is the slot range [lo, hi) whose chunks at one lpa, the slot's
// own excluded, XOR back to the slot's chunk: the whole row under
// parity, the mirror partner, nothing without redundancy. Chunks never
// written count as zeros; the caller knows which those are.
func (l layout) peers(slot int) (lo, hi int) {
	if l.parity {
		return 0, l.slots
	}
	lo = slot - slot%l.copies
	return lo, lo + l.copies
}
