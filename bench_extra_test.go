package xlnand

// Benchmarks for the subsystems beyond the figure harness: FTL service
// paths, the stress models and the HV power integration.

import (
	"testing"

	"xlnand/internal/controller"
	"xlnand/internal/dispatch"
	"xlnand/internal/ftl"
	"xlnand/internal/hv"
	"xlnand/internal/nand"
	"xlnand/internal/sim"
)

func newBenchFTL(b *testing.B) *ftl.FTL {
	b.Helper()
	env := sim.DefaultEnv()
	d, err := dispatch.New(dispatch.Config{
		Dies: 1, BlocksPerDie: 6, Seed: 555,
		Env: env, Controller: controller.DefaultConfig(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	f, err := ftl.New(d, env, []ftl.PartitionSpec{
		{Name: "data", Blocks: 6, Mode: sim.ModeMaxRead},
	})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

func BenchmarkFTLWriteWithGC(b *testing.B) {
	f := newBenchFTL(b)
	data := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Write("data", i%100, data); err != nil {
			b.Fatal(err)
		}
	}
	p, err := f.Partition("data")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(p.WriteAmplification(), "write-amp")
}

func BenchmarkFTLRead(b *testing.B) {
	f := newBenchFTL(b)
	data := make([]byte, 4096)
	for lpa := 0; lpa < 32; lpa++ {
		if _, err := f.Write("data", lpa, data); err != nil {
			b.Fatal(err)
		}
	}
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.ReadInto("data", i%32, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStressedRBER(b *testing.B) {
	cal := nand.DefaultCalibration()
	s := nand.DefaultStressConfig()
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc += cal.StressedRBER(s, nand.ISPPSV, 1e4, float64(i%100000), float64(i%5000))
	}
	_ = acc
}

func BenchmarkHVPowerIntegration(b *testing.B) {
	pc := hv.DefaultPowerConfig()
	cal := nand.DefaultCalibration()
	tl, err := hv.SyntheticTimeline(cal, nand.ISPPDV, nand.L3, 1e4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.Integrate(tl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionFigures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("ext-retention", 1); err != nil {
			b.Fatal(err)
		}
		if _, err := RunExperiment("ext-disturb", 1); err != nil {
			b.Fatal(err)
		}
	}
}
