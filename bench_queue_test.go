package xlnand

// Benchmarks for the batched queue and the multi-die dispatcher:
// batch read throughput scaling with die count, cross-checked against
// the ScaleDies analytic pipeline. Two metrics are reported per die
// count: model-MB/s (measured on the dispatcher's virtual timeline) and
// model-pred-MB/s (the ScaleDies steady-state prediction); the wall
// ns/op additionally tracks the real simulation cost of a 64-page batch.

import (
	"context"
	"testing"
	"time"
)

func benchQueueReadDies(b *testing.B, dies int) {
	sys, err := Open(fastFabric(dies)...)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	q := sys.NewQueue()
	ctx := context.Background()
	const pages = 64
	page := pageOf(60, sys.PageSize())

	var writes, reads, refresh []Request
	for i := 0; i < pages; i++ {
		writes = append(writes, WriteRequest(i%dies, 0, i/dies, page))
		reads = append(reads, ReadRequest(i%dies, 0, i/dies))
	}
	for d := 0; d < dies; d++ {
		refresh = append(refresh, EraseRequest(d, 0))
	}
	refresh = append(refresh, writes...)
	mustSubmit := func(rs []Request) []Completion {
		comps, err := q.Submit(ctx, rs)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range comps {
			if c.Err != nil {
				b.Fatal(c.Err)
			}
		}
		return comps
	}
	mustSubmit(writes)

	b.SetBytes(int64(pages * sys.PageSize()))
	b.ResetTimer()
	var mbps float64
	for i := 0; i < b.N; i++ {
		if i > 0 && i%32 == 0 {
			// Heal accumulated read disturb so long runs stay decodable.
			b.StopTimer()
			mustSubmit(refresh)
			b.StartTimer()
		}
		comps := mustSubmit(reads)
		var start, finish time.Duration
		for j, c := range comps {
			if j == 0 || c.Start < start {
				start = c.Start
			}
			if c.Finish > finish {
				finish = c.Finish
			}
		}
		mbps = float64(pages*sys.PageSize()) / (finish - start).Seconds() / 1e6
	}
	b.StopTimer()
	b.ReportMetric(mbps, "model-MB/s")
	pred, err := sys.ScaleDies(ModeNominal, 0, dies)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(pred.ReadMBps, "model-pred-MB/s")
}

func BenchmarkQueueReadDies1(b *testing.B) { benchQueueReadDies(b, 1) }
func BenchmarkQueueReadDies2(b *testing.B) { benchQueueReadDies(b, 2) }
func BenchmarkQueueReadDies4(b *testing.B) { benchQueueReadDies(b, 4) }
func BenchmarkQueueReadDies8(b *testing.B) { benchQueueReadDies(b, 8) }

// BenchmarkQueueMixedBatch measures the real (wall-clock) cost of
// dispatching a 64-request mixed batch across four dies — the overhead
// budget of the submission/completion machinery itself.
func BenchmarkQueueMixedBatch(b *testing.B) {
	sys, err := Open(WithDies(4), WithBlocks(2), WithSeed(21))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	q := sys.NewQueue()
	ctx := context.Background()
	page := pageOf(61, sys.PageSize())
	var seed []Request
	for d := 0; d < 4; d++ {
		for p := 0; p < 8; p++ {
			seed = append(seed, WriteRequest(d, 0, p, page))
		}
	}
	if _, err := q.Submit(ctx, seed); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64 * int64(sys.PageSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var batch []Request
		for d := 0; d < 4; d++ {
			for p := 0; p < 8; p++ {
				batch = append(batch, ReadRequest(d, 0, p))
				batch = append(batch, WriteRequest(d, 1, p, page))
			}
		}
		comps, err := q.Submit(ctx, batch)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range comps {
			if c.Err != nil {
				b.Fatal(c.Err)
			}
		}
		b.StopTimer()
		for d := 0; d < 4; d++ {
			if _, err := q.Do(ctx, EraseRequest(d, 1)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}
