// Package sim assembles the device, codec and timing models into the
// cross-layer trade-off analysis of paper §6.3: operating-point metrics
// (UBER, read/write throughput, power) as functions of the two knobs —
// program algorithm (physical layer) and ECC capability (architecture
// layer) — across the device lifetime.
package sim

import (
	"fmt"
	"math"
	"time"

	"xlnand/internal/bch"
	"xlnand/internal/hv"
	"xlnand/internal/nand"
)

// Env bundles the model components every analysis shares.
type Env struct {
	Cal   nand.Calibration
	HW    bch.HWConfig
	Bus   nand.FlashBus
	Power hv.PowerConfig
	// TargetUBER is the service requirement (1e-11 in the paper).
	TargetUBER float64
	// M, K, TMin, TMax describe the adaptive codec geometry.
	M, K, TMin, TMax int
}

// DefaultEnv returns the paper's configuration.
func DefaultEnv() Env {
	m, k, tmin, tmax := bch.PageCodecParams()
	return Env{
		Cal:        nand.DefaultCalibration(),
		HW:         bch.DefaultHWConfig(),
		Bus:        nand.DefaultFlashBus(),
		Power:      hv.DefaultPowerConfig(),
		TargetUBER: 1e-11,
		M:          m, K: k, TMin: tmin, TMax: tmax,
	}
}

// RequiredT returns the minimal capability meeting the env's UBER target
// at the model RBER for (alg, cycles), clamped to the codec range. This
// is the "nominal schedule" of the paper's §6.2: the staircase t(N).
func (e Env) RequiredT(alg nand.Algorithm, cycles float64) int {
	rber := e.Cal.RBER(alg, cycles)
	t, err := bch.RequiredT(e.M, e.K, rber, e.TargetUBER, e.TMax)
	if err != nil {
		return e.TMax
	}
	if t < e.TMin {
		t = e.TMin
	}
	return t
}

// OperatingPoint is one cross-layer configuration evaluated at a given
// wear level.
type OperatingPoint struct {
	Alg    nand.Algorithm
	T      int
	Cycles float64

	RBER float64
	// UBER is the tail-accumulated post-correction error rate.
	UBER float64

	// Latency components.
	EncodeLatency time.Duration
	DecodeLatency time.Duration
	ReadLatency   time.Duration // tR + transfer + decode
	WriteLatency  time.Duration // program-path latency (encode pipelined)
	ProgramTime   time.Duration

	// Throughputs in MB/s over the 4 KB payload.
	ReadMBps  float64
	WriteMBps float64

	// Power.
	ProgramPowerW float64 // device HV power during program (L2 pattern)
	ECCPowerW     float64 // codec power at this capability

	// Energy efficiency (picojoules per user bit).
	WriteEnergyPJPerBit float64
	ReadEnergyPJPerBit  float64
}

// ECCPowerW models the adaptive codec's power draw as linear in the
// active correction capability, calibrated to the paper's §6.3.2 numbers
// (≈ 7 mW at t = 65, ≈ 1 mW at the relaxed DV setting).
func ECCPowerW(t int) float64 {
	const wattsPerT = 7e-3 / 65
	return wattsPerT * float64(t)
}

// Evaluate computes every metric of a cross-layer configuration at the
// given wear, a finite, non-negative P/E cycle count.
func (e Env) Evaluate(alg nand.Algorithm, t int, cycles float64) (OperatingPoint, error) {
	if t < e.TMin || t > e.TMax {
		return OperatingPoint{}, fmt.Errorf("sim: t=%d outside [%d, %d]", t, e.TMin, e.TMax)
	}
	if !(cycles >= 0) || math.IsInf(cycles, 1) {
		return OperatingPoint{}, fmt.Errorf("sim: invalid cycle count %g", cycles)
	}
	op := OperatingPoint{Alg: alg, T: t, Cycles: cycles}
	op.RBER = e.Cal.RBER(alg, cycles)
	n := e.K + e.M*t
	op.UBER = math.Exp(bch.LogUBERTail(n, t, op.RBER))

	op.EncodeLatency = e.HW.EncodeLatency(e.K)
	op.DecodeLatency = e.HW.DecodeLatency(n, t)
	transfer := e.Bus.Transfer(n / 8)
	op.ReadLatency = nand.PageReadTime + transfer + op.DecodeLatency

	prog := nand.EstimateProgram(e.Cal, alg, e.Cal.Age(cycles))
	op.ProgramTime = prog.Duration
	// Write path: encode and transfer of page i+1 overlap the (much
	// longer) program of page i, so sustained write latency is the
	// program time (paper §6.3.3: program dominates; encode is two
	// orders of magnitude shorter).
	op.WriteLatency = prog.Duration

	payload := e.K / 8
	op.ReadMBps = nand.Throughput(payload, op.ReadLatency)
	op.WriteMBps = nand.Throughput(payload, op.WriteLatency)

	pw, err := e.Power.ProgramPower(e.Cal, alg, nand.L2, cycles)
	if err != nil {
		return op, err
	}
	op.ProgramPowerW = pw.AveragePowerW
	op.ECCPowerW = ECCPowerW(t)

	// Energy per user bit. Write: device power over the program run plus
	// the codec during encode. Read: sensing power over tR (verify-pump
	// class load plus die baseline) plus the codec during decode.
	bits := float64(e.K)
	writeJ := op.ProgramPowerW*op.ProgramTime.Seconds() +
		ECCPowerW(t)*op.EncodeLatency.Seconds()
	vp, err := e.Power.Verify.InputPower(e.Power.VerifyTargetV, e.Power.VerifyLoadAmps)
	if err != nil {
		return op, err
	}
	readPowerW := e.Power.BaselineWatts + vp
	readJ := readPowerW*nand.PageReadTime.Seconds() +
		ECCPowerW(t)*op.DecodeLatency.Seconds()
	op.WriteEnergyPJPerBit = writeJ / bits * 1e12
	op.ReadEnergyPJPerBit = readJ / bits * 1e12
	return op, nil
}

// Mode names the three service levels of §6.3.
type Mode int

const (
	// ModeNominal: ISPP-SV with t tracking the SV RBER — the baseline.
	ModeNominal Mode = iota
	// ModeMinUBER: ISPP-DV while keeping the nominal (SV-sized) t —
	// UBER improves by orders of magnitude at constant read throughput
	// (§6.3.1).
	ModeMinUBER
	// ModeMaxRead: ISPP-DV with t relaxed to just meet the UBER target —
	// read throughput improves at constant UBER (§6.3.2).
	ModeMaxRead
)

// Ptr returns a pointer to m — the shape per-request service-level
// overrides take (a nil Mode pointer means "use the default").
func (m Mode) Ptr() *Mode { return &m }

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNominal:
		return "nominal"
	case ModeMinUBER:
		return "min-UBER"
	case ModeMaxRead:
		return "max-read"
	default:
		return "mode?"
	}
}

// EvaluateMode resolves a service level into its cross-layer
// configuration at the given wear and evaluates it.
func (e Env) EvaluateMode(m Mode, cycles float64) (OperatingPoint, error) {
	switch m {
	case ModeNominal:
		return e.Evaluate(nand.ISPPSV, e.RequiredT(nand.ISPPSV, cycles), cycles)
	case ModeMinUBER:
		// Keep the SV-sized capability, switch the physical layer.
		return e.Evaluate(nand.ISPPDV, e.RequiredT(nand.ISPPSV, cycles), cycles)
	case ModeMaxRead:
		return e.Evaluate(nand.ISPPDV, e.RequiredT(nand.ISPPDV, cycles), cycles)
	default:
		return OperatingPoint{}, fmt.Errorf("sim: unknown mode %d", int(m))
	}
}
