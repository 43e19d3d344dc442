package xlnand

// The benchmark harness regenerates every figure of the paper's
// evaluation (go test -bench=Fig -benchmem) and reports the figure's
// headline quantity as a custom benchmark metric, so that the shape
// comparison recorded in EXPERIMENTS.md is reproducible in one command.
// Micro-benchmarks of the codec and device hot paths follow.

import (
	"math"
	"testing"

	"xlnand/internal/bch"
	"xlnand/internal/nand"
	"xlnand/internal/stats"
)

// runFigure regenerates a figure once per iteration (the cost benched is
// the full experiment sweep) and returns the last result for metric
// extraction.
func runFigure(b *testing.B, id string) Figure {
	b.Helper()
	var fig Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = RunExperiment(id, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

func lastY(fig Figure, series string) float64 {
	for _, s := range fig.Series {
		if s.Name == series && len(s.Y) > 0 {
			return s.Y[len(s.Y)-1]
		}
	}
	return math.NaN()
}

func BenchmarkFig04ISPPTransfer(b *testing.B) {
	fig := runFigure(b, "fig04")
	// Headline: RMS fit error between compact model and reference.
	var rms float64
	simS, refS := fig.Series[0], fig.Series[1]
	for i := range simS.Y {
		d := simS.Y[i] - refS.Y[i]
		rms += d * d
	}
	b.ReportMetric(math.Sqrt(rms/float64(len(simS.Y))), "rms-fit-V")
}

func BenchmarkFig05RBER(b *testing.B) {
	fig := runFigure(b, "fig05")
	sv := lastY(fig, "RBER ISPP-SV")
	dv := lastY(fig, "RBER ISPP-DV")
	b.ReportMetric(sv, "sv-eol-rber")
	b.ReportMetric(sv/dv, "dv-gain-x")
}

func BenchmarkFig06Power(b *testing.B) {
	fig := runFigure(b, "fig06")
	sv := lastY(fig, "ISPP-SV L2 Pattern")
	dv := lastY(fig, "ISPP-DV L2 Pattern")
	b.ReportMetric(sv, "sv-l2-watts")
	b.ReportMetric((dv-sv)*1e3, "dv-delta-mW")
}

func BenchmarkFig07UBERvsRBER(b *testing.B) {
	fig := runFigure(b, "fig07")
	b.ReportMetric(float64(len(fig.Series)), "series")
}

func BenchmarkFig07DV(b *testing.B) {
	fig := runFigure(b, "fig07dv")
	b.ReportMetric(float64(len(fig.Series)), "series")
}

func BenchmarkFig08Latency(b *testing.B) {
	fig := runFigure(b, "fig08")
	b.ReportMetric(lastY(fig, "ISPP-SV ECC Decoding"), "sv-eol-decode-us")
	b.ReportMetric(lastY(fig, "ISPP-DV ECC Decoding"), "dv-eol-decode-us")
	b.ReportMetric(lastY(fig, "ISPP-SV ECC Encoding"), "encode-us")
}

func BenchmarkFig09WriteLoss(b *testing.B) {
	fig := runFigure(b, "fig09")
	s := fig.Series[0]
	b.ReportMetric(s.Y[0], "fresh-loss-pct")
	b.ReportMetric(s.Y[len(s.Y)-1], "eol-loss-pct")
}

func BenchmarkFig10UBER(b *testing.B) {
	fig := runFigure(b, "fig10")
	nom := lastY(fig, "Nominal")
	mod := lastY(fig, "Physical Layer Modification")
	b.ReportMetric(math.Log10(nom)-math.Log10(mod), "eol-boost-decades")
}

func BenchmarkFig11ReadGain(b *testing.B) {
	fig := runFigure(b, "fig11")
	s := fig.Series[0]
	b.ReportMetric(s.Y[len(s.Y)-1], "eol-gain-pct")
	b.ReportMetric(s.Y[0], "fresh-gain-pct")
}

func BenchmarkAblationBlockSize(b *testing.B) {
	fig := runFigure(b, "abl-blocksize")
	b.ReportMetric(lastY(fig, "512 B blocks (Chen et al. [28])"), "small-block-overhead-pct")
	b.ReportMetric(lastY(fig, "4 KB page (this work)"), "page-overhead-pct")
}

func BenchmarkAblationISPPKnobs(b *testing.B) {
	fig := runFigure(b, "abl-ispp")
	b.ReportMetric(lastY(fig, "DV sigma [mV]"), "dv-sigma-mV")
}

func BenchmarkAblationParallelism(b *testing.B) {
	fig := runFigure(b, "abl-parallelism")
	b.ReportMetric(float64(len(fig.Series)), "p-configs")
}

func BenchmarkAblationApproximation(b *testing.B) {
	fig := runFigure(b, "abl-approx")
	b.ReportMetric(lastY(fig, "t = 65"), "tail-ratio-t65")
}

// --- codec micro-benchmarks (the architecture-layer hot paths) ---

func pageCodec(b *testing.B) *Codec {
	b.Helper()
	codec, err := NewPageCodec()
	if err != nil {
		b.Fatal(err)
	}
	return codec
}

func benchEncode(b *testing.B, t int) {
	codec := pageCodec(b)
	if err := codec.Warm(t); err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, codec.K/8)
	r := stats.NewRNG(1)
	for i := range msg {
		msg[i] = byte(r.Intn(256))
	}
	pb, err := codec.ParityBytes(t)
	if err != nil {
		b.Fatal(err)
	}
	parity := make([]byte, pb)
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := codec.EncodeInto(t, parity, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodePageT3(b *testing.B)  { benchEncode(b, 3) }
func BenchmarkEncodePageT30(b *testing.B) { benchEncode(b, 30) }
func BenchmarkEncodePageT65(b *testing.B) { benchEncode(b, 65) }

func benchDecode(b *testing.B, t, nerr int) {
	codec := pageCodec(b)
	if err := codec.Warm(t); err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(2)
	msg := make([]byte, codec.K/8)
	for i := range msg {
		msg[i] = byte(r.Intn(256))
	}
	clean, err := codec.EncodeCodeword(t, msg)
	if err != nil {
		b.Fatal(err)
	}
	cw := make([]byte, len(clean))
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(cw, clean)
		for _, pos := range r.SampleK(len(cw)*8, nerr) {
			cw[pos/8] ^= 1 << uint(7-pos%8)
		}
		b.StartTimer()
		if _, err := codec.Decode(t, cw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePageT3Clean(b *testing.B)      { benchDecode(b, 3, 0) }
func BenchmarkDecodePageT30With10Err(b *testing.B) { benchDecode(b, 30, 10) }
func BenchmarkDecodePageT65With65Err(b *testing.B) { benchDecode(b, 65, 65) }

func BenchmarkGFMul(b *testing.B) {
	f := pageCodec(b).Field()
	var acc uint32 = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = f.Mul(acc|1, uint32(i)&0xffff|1)
	}
	_ = acc
}

func BenchmarkUBERSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bch.RequiredT(16, 32768, 1e-4, 1e-11, 65); err != nil {
			b.Fatal(err)
		}
	}
}

// --- device micro-benchmarks (the physical-layer hot paths) ---

func BenchmarkPageSimProgramSV(b *testing.B) {
	benchProgram(b, nand.ISPPSV)
}

func BenchmarkPageSimProgramDV(b *testing.B) {
	benchProgram(b, nand.ISPPDV)
}

func benchProgram(b *testing.B, alg nand.Algorithm) {
	cal := nand.DefaultCalibration()
	rng := stats.NewRNG(3)
	sim := nand.NewPageSim(cal, cal.CellsPerPage, rng)
	aged := cal.Age(1e4)
	targets := make([]nand.Level, cal.CellsPerPage)
	for i := range targets {
		targets[i] = nand.Level(rng.Intn(4))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Erase(aged)
		if _, err := sim.Program(targets, alg, aged); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubsystemWriteRead(b *testing.B) {
	sys, err := Open(WithBlocks(4), WithSeed(9))
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, sys.PageSize())
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block := i % sys.Blocks()
		page := (i / sys.Blocks()) % sys.PagesPerBlock()
		if page == 0 && i >= sys.Blocks() {
			b.StopTimer()
			if err := sys.EraseBlock(block); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := sys.WritePage(block, page, data); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.ReadPage(block, page); err != nil {
			b.Fatal(err)
		}
	}
}
