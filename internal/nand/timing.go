package nand

import (
	"fmt"
	"time"
)

// This file holds the timing substrate shared by the memory sub-system:
// the array sensing time and the flash interface bus model, with the
// datasheet constants the paper quotes (Micron MT29F64G08 [27]). The
// controller and the throughput analyses consume these so that every
// figure uses one set of numbers.

// PageReadTime is the array-to-page-register sensing time tR; the paper
// quotes 75 µs for the Micron MLC part it references [27].
const PageReadTime = 75 * time.Microsecond

// FlashBus models the asynchronous 8-bit flash interface between the
// controller and the NAND die.
type FlashBus struct {
	WidthBits int     // data width (8 for the modelled part)
	ClockHz   float64 // cycle rate of the interface
}

// DefaultFlashBus returns the 8-bit, 33 MHz interface used throughout the
// reproduction (≈ 33 MB/s, the class of interface contemporary to the
// paper's referenced parts).
func DefaultFlashBus() FlashBus {
	return FlashBus{WidthBits: 8, ClockHz: 33e6}
}

// Transfer returns the time to move n bytes across the bus.
func (b FlashBus) Transfer(n int) time.Duration {
	if n < 0 {
		panic(fmt.Sprintf("nand: negative transfer size %d", n))
	}
	if b.WidthBits <= 0 || b.ClockHz <= 0 {
		panic("nand: uninitialised bus")
	}
	bytesPerCycle := float64(b.WidthBits) / 8
	cycles := float64(n) / bytesPerCycle
	return time.Duration(cycles / b.ClockHz * float64(time.Second))
}

// Throughput converts a payload size and total operation time into MB/s
// (decimal megabytes, the unit convention of the paper's figures).
func Throughput(payloadBytes int, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(payloadBytes) / total.Seconds() / 1e6
}
