package sim

import (
	"testing"

	"xlnand/internal/nand"
)

func TestScaleDiesValidation(t *testing.T) {
	e := DefaultEnv()
	if _, err := e.ScaleDies(ModeNominal, 0, 0); err == nil {
		t.Fatal("zero dies accepted")
	}
}

func TestSingleDieMatchesPipelineBound(t *testing.T) {
	// With one die, the pipelined multi-die model must not exceed the
	// sequential single-request throughput by more than the pipelining
	// factor (stages overlap), and never fall below it.
	e := DefaultEnv()
	op, err := e.EvaluateMode(ModeNominal, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.ScaleDies(ModeNominal, 1e5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.ReadMBps < op.ReadMBps {
		t.Fatalf("pipelined read %.2f below sequential %.2f", s.ReadMBps, op.ReadMBps)
	}
	if s.ReadMBps > op.ReadMBps*4 {
		t.Fatalf("pipelined read %.2f implausibly above sequential %.2f", s.ReadMBps, op.ReadMBps)
	}
}

func TestReadScalingSaturatesAtSharedStage(t *testing.T) {
	e := DefaultEnv()
	sweep, err := e.DieSweep(ModeNominal, 1e6, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Monotone non-decreasing, then flat once the codec dominates.
	for i := 1; i < len(sweep); i++ {
		if sweep[i].ReadMBps < sweep[i-1].ReadMBps-1e-9 {
			t.Fatalf("read throughput regressed at %d dies", sweep[i].Dies)
		}
	}
	last := sweep[len(sweep)-1]
	if last.ReadBottleneck != "codec" {
		t.Fatalf("EOL nominal read bottleneck with 8 dies = %s, want codec (decode 168 µs)", last.ReadBottleneck)
	}
	// t=65 decode is 167.8 µs -> ceiling ≈ 4096 B / 167.8 µs ≈ 24.4 MB/s.
	if last.ReadMBps < 20 || last.ReadMBps > 30 {
		t.Fatalf("codec-bound read ceiling %.2f MB/s", last.ReadMBps)
	}
}

func TestCrossLayerGainCompoundsWithDies(t *testing.T) {
	// With the array time hidden behind 4 dies, the codec is the read
	// bottleneck — the exact stage max-read relaxes, so the gain at
	// EOL must persist (and the bottleneck move to the bus).
	e := DefaultEnv()
	nom, err := e.ScaleDies(ModeNominal, 1e6, 4)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := e.ScaleDies(ModeMaxRead, 1e6, 4)
	if err != nil {
		t.Fatal(err)
	}
	gain := fast.ReadMBps/nom.ReadMBps - 1
	if gain < 0.2 {
		t.Fatalf("multi-die EOL read gain %.0f%% too small", gain*100)
	}
	if fast.ReadBottleneck == "codec" && fast.ReadMBps < nom.ReadMBps {
		t.Fatal("relaxed codec still slower than nominal")
	}
	// The relaxed mode is bus- or codec-bound near the bus bandwidth.
	const n = 1 << 20
	if busMBps := nand.Throughput(n, e.Bus.Transfer(n)); fast.ReadMBps > busMBps*1.05 {
		t.Fatalf("read %.2f MB/s exceeds bus bandwidth", fast.ReadMBps)
	}
}

func TestWriteScalingArrayBound(t *testing.T) {
	// Writes are array-bound (program ≈ 1 ms) until many dies hide it.
	e := DefaultEnv()
	one, err := e.ScaleDies(ModeNominal, 1e3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.WriteBottleneck != "array" {
		t.Fatalf("single-die write bottleneck = %s", one.WriteBottleneck)
	}
	many, err := e.ScaleDies(ModeNominal, 1e3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if many.WriteMBps <= one.WriteMBps*4 {
		t.Fatalf("16-die write scaling too weak: %.2f vs %.2f", many.WriteMBps, one.WriteMBps)
	}
	if many.WriteBottleneck == "array" {
		t.Fatal("16 dies should hide the program time")
	}
}

func TestDVWritePenaltyShrinksWithDies(t *testing.T) {
	// Once writes are bus/encode-bound (enough dies), the DV program
	// penalty disappears from the throughput — a genuinely new insight
	// the multi-die model exposes: parallelism pays the cross-layer
	// write cost.
	e := DefaultEnv()
	nom16, err := e.ScaleDies(ModeNominal, 1e3, 16)
	if err != nil {
		t.Fatal(err)
	}
	dv16, err := e.ScaleDies(ModeMaxRead, 1e3, 16)
	if err != nil {
		t.Fatal(err)
	}
	loss := 1 - dv16.WriteMBps/nom16.WriteMBps
	if loss > 0.05 {
		t.Fatalf("16-die DV write loss still %.0f%%", loss*100)
	}
}
