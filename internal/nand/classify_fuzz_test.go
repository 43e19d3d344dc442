package nand

import (
	"bytes"
	"math"
	"testing"

	"xlnand/internal/stats"
)

// FuzzClassifySweep pins the word-parallel sensing kernel to its scalar
// predecessor: two identical pages built from the same seed are read
// once through ReadLevelsInto (batched noise scratch, branch-free
// comparison sweep against running-max boundaries, word-parallel Gray
// packer) and once through a cell-at-a-time replica of the historical
// path (interleaved noise draw, first-match ClassifyVTHShifted,
// bit-by-bit packing). Levels and packed bytes must match cell for
// cell — including non-monotone read-retry offset triples, aged
// retention shifts and page sizes with a partial tail word.
func FuzzClassifySweep(f *testing.F) {
	f.Add(uint64(1), 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(42), -0.4, 0.1, -0.9, 1e5)
	f.Add(uint64(7), 2.0, -3.0, 1.0, 9e5) // offsets that reorder the boundaries
	f.Fuzz(func(t *testing.T, seed uint64, o0, o1, o2, cycles float64) {
		for _, o := range []float64{o0, o1, o2} {
			if math.IsNaN(o) || math.Abs(o) > 50 {
				t.Skip("offset outside the finite sensing range")
			}
		}
		if math.IsNaN(cycles) || cycles < 0 || cycles > 2e7 {
			t.Skip("cycles outside the modelled range")
		}
		cal := DefaultCalibration()
		aged := cal.Age(cycles)
		off := ReadOffsets{o0, o1, o2}
		cells := 64 + int(seed%97) // non-multiples of 32 exercise the tail packer

		// Two bit-identical pages: same construction, erase and program
		// stream, so their RNGs sit at the same position before the read.
		build := func() *PageSim {
			p := NewPageSim(cal, cells, stats.NewRNG(seed))
			p.Erase(aged)
			data := make([]byte, (cells+3)/4)
			drng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
			for i := range data {
				data[i] = byte(drng.Intn(256))
			}
			if _, err := p.Program(TargetLevels(data)[:cells], ISPPSV, aged); err != nil {
				t.Fatal(err)
			}
			return p
		}
		fast, ref := build(), build()

		got := fast.ReadLevelsInto(make([]Level, cells), aged, off)
		gotBytes := LevelsToBytesInto(make([]byte, (len(got)+3)/4), got)

		// Scalar replica of the read: one noise draw per cell in stream
		// order, the retention model verbatim, first-match classification.
		var shift [numLevels]float64
		for l := L1; l < numLevels; l++ {
			shift[l] = aged.RetShift * (1 + 0.5*float64(l-1))
		}
		want := make([]Level, cells)
		for i := 0; i < cells; i++ {
			eff := ref.vth[i] - shift[ref.programmed[i]] + ref.rng.NormMuSigma(0, aged.ReadNoise)
			want[i] = cal.ClassifyVTHShifted(eff, off)
		}
		wantBytes := make([]byte, (cells+3)/4)
		for i, l := range want {
			upper, lower := l.Bits()
			wantBytes[i/4] |= upper << uint(7-2*(i%4))
			wantBytes[i/4] |= lower << uint(6-2*(i%4))
		}

		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cell %d: sweep classified %v, scalar reference %v (seed %d off %v cycles %g)",
					i, got[i], want[i], seed, off, cycles)
			}
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("word-parallel Gray packing diverged from scalar packing (seed %d, %d cells)", seed, cells)
		}
	})
}
