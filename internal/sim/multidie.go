package sim

import (
	"fmt"

	"xlnand/internal/nand"
)

// DieScaling models an interleaved multi-die organisation behind one
// controller (the MPSoC integration context of paper §3): array
// operations (tR, program) proceed in parallel across dies, while the
// flash bus and the single adaptive codec are shared and serialise.
// Steady-state pipelined throughput is therefore bounded by the slowest
// *shared* stage:
//
//	read  MB/s = page / max(tR/dies,      transfer, decode)
//	write MB/s = page / max(program/dies, transfer, encode)
//
// The cross-layer story compounds: with enough dies the array time hides
// completely and the codec becomes the bottleneck — exactly the stage
// the max-read mode relaxes.
type DieScaling struct {
	Dies      int
	ReadMBps  float64
	WriteMBps float64
	// Bottlenecks name the pipeline stage limiting each direction:
	// "array", "bus" or "codec".
	ReadBottleneck  string
	WriteBottleneck string
}

// ScaleDies evaluates a mode's throughput for a die count.
func (e Env) ScaleDies(m Mode, cycles float64, dies int) (DieScaling, error) {
	if dies < 1 {
		return DieScaling{}, fmt.Errorf("sim: die count %d < 1", dies)
	}
	op, err := e.EvaluateMode(m, cycles)
	if err != nil {
		return DieScaling{}, err
	}
	n := e.K + e.M*op.T
	transfer := e.Bus.Transfer(n / 8)
	payload := e.K / 8

	pick := func(array, bus, codec float64) (float64, string) {
		stage, name := array, "array"
		if bus > stage {
			stage, name = bus, "bus"
		}
		if codec > stage {
			stage, name = codec, "codec"
		}
		return stage, name
	}

	readStage, readName := pick(
		nand.PageReadTime.Seconds()/float64(dies),
		transfer.Seconds(),
		op.DecodeLatency.Seconds(),
	)
	writeStage, writeName := pick(
		op.ProgramTime.Seconds()/float64(dies),
		transfer.Seconds(),
		op.EncodeLatency.Seconds(),
	)
	return DieScaling{
		Dies:            dies,
		ReadMBps:        float64(payload) / readStage / 1e6,
		WriteMBps:       float64(payload) / writeStage / 1e6,
		ReadBottleneck:  readName,
		WriteBottleneck: writeName,
	}, nil
}

// DieSweep evaluates a mode across die counts.
func (e Env) DieSweep(m Mode, cycles float64, maxDies int) ([]DieScaling, error) {
	out := make([]DieScaling, 0, maxDies)
	for d := 1; d <= maxDies; d++ {
		s, err := e.ScaleDies(m, cycles, d)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
