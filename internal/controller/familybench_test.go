package controller

import (
	"fmt"
	"testing"
	"time"

	"xlnand/internal/bch"
	"xlnand/internal/ecc"
	"xlnand/internal/ldpc"
	"xlnand/internal/nand"
)

// BenchmarkFamilyRecovery sweeps both codec families through the full
// recovery pipeline at three device ages (the retry matrix's fresh /
// cycled / retention-baked corners) and reports decode throughput,
// recovered UBER (lost bits per bit read on the modelled medium) and the
// modelled read MB/s. The retry
// budget opens one rung past the hard ladder, so the LDPC series pays
// its soft-sense rung where the climate demands it.
func BenchmarkFamilyRecovery(b *testing.B) {
	const pages = 6
	steps := nand.DefaultStressConfig().RetrySteps
	families := []struct {
		name  string
		build func(b *testing.B) ecc.Codec
	}{
		{"bch", func(b *testing.B) ecc.Codec {
			c, err := bch.NewPageCodec()
			if err != nil {
				b.Fatal(err)
			}
			return c
		}},
		{"ldpc", func(b *testing.B) ecc.Codec {
			c, err := ldpc.NewPageCodec()
			if err != nil {
				b.Fatal(err)
			}
			return c
		}},
	}
	for _, fam := range families {
		for _, cond := range ladderConditions() {
			b.Run(fmt.Sprintf("%s/%s", fam.name, cond.name), func(b *testing.B) {
				dev := nand.NewDevice(nand.DefaultCalibration(), 4, 11)
				cfg := DefaultConfig()
				cfg.MaxRetries = steps + 1
				c, err := New(dev, fam.build(b), cfg)
				if err != nil {
					b.Fatal(err)
				}
				want := prepareLadderPages(b, c, cond, pages)
				pageBits := int64(len(want[0])) * 8
				var bits, lost int64
				var modelled time.Duration
				b.SetBytes(int64(len(want[0])))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := c.ReadPageRetryInto(0, i%pages, c.ReadRetry(), nil)
					bits += pageBits
					modelled += res.Latency.Total()
					if err != nil {
						lost += pageBits
					}
				}
				b.StopTimer()
				if bits > 0 {
					b.ReportMetric(float64(lost)/float64(bits), "recovered-UBER")
				}
				if modelled > 0 {
					b.ReportMetric(float64(len(want[0]))*float64(b.N)/modelled.Seconds()/1e6, "model-MB/s")
				}
			})
		}
	}
}
