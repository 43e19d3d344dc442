package array

import (
	"bytes"
	"fmt"
	"testing"
)

// testConfig is a small fast fleet: single-die drives, three blocks
// each (128-page drive capacity).
func testConfig(drives int) Config {
	return Config{
		Drives:       drives,
		DiesPerDrive: 1,
		BlocksPerDie: 3,
		Seed:         4242,
	}
}

func pagePattern(a *Array, page, version int) []byte {
	data := make([]byte, a.PageBytes())
	for i := range data {
		data[i] = byte(page*31 + version*7 + i)
	}
	return data
}

func mustDrain(t *testing.T, a *Array) []Result {
	t.Helper()
	res, err := a.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestArrayRoundtrip writes and reads back a striped volume through
// the cache and checks every byte plus the basic counters.
func TestArrayRoundtrip(t *testing.T) {
	cfg := testConfig(4)
	cfg.Cache = CacheConfig{Pages: 8}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if a.VolumePages() != 4*128 {
		t.Fatalf("volume pages = %d, want 512", a.VolumePages())
	}
	const n = 40
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, 0), Tag: uint64(p)}); err != nil {
			t.Fatal(err)
		}
	}
	writes := mustDrain(t, a)
	if len(writes) != n {
		t.Fatalf("%d write completions, want %d", len(writes), n)
	}
	for _, r := range writes {
		if r.Err != nil {
			t.Fatalf("write page %d: %v", r.Page, r.Err)
		}
		if r.Tag != uint64(r.Page) {
			t.Fatalf("tag %d echoed for page %d", r.Tag, r.Page)
		}
	}
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Page: p}); err != nil {
			t.Fatal(err)
		}
	}
	reads := mustDrain(t, a)
	if len(reads) != n {
		t.Fatalf("%d read completions, want %d", len(reads), n)
	}
	for _, r := range reads {
		if r.Err != nil {
			t.Fatalf("read page %d: %v", r.Page, r.Err)
		}
		if !bytes.Equal(r.Data, pagePattern(a, r.Page, 0)) {
			t.Fatalf("page %d read back wrong data", r.Page)
		}
		if r.CacheHit {
			if r.Drive != -1 {
				t.Fatalf("cache hit tagged with drive %d", r.Drive)
			}
		} else if r.Drive < 0 || r.Drive >= cfg.Drives {
			t.Fatalf("miss served by drive %d", r.Drive)
		}
	}
	// The scan's tail is resident now: re-reading it must hit.
	hits := 0
	for p := n - 8; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Page: p}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range mustDrain(t, a) {
		if r.Err != nil {
			t.Fatalf("re-read page %d: %v", r.Page, r.Err)
		}
		if !bytes.Equal(r.Data, pagePattern(a, r.Page, 0)) {
			t.Fatalf("re-read page %d wrong data", r.Page)
		}
		if r.CacheHit {
			hits++
		}
	}
	if hits != 8 {
		t.Fatalf("re-read of resident tail hit %d/8 times", hits)
	}
	rep := a.Report()
	if rep.Cache.Hits == 0 || rep.Cache.Misses == 0 || rep.Cache.Evictions == 0 || rep.Cache.Writebacks == 0 {
		t.Fatalf("cache climate incomplete: %+v", rep.Cache)
	}
	if int(rep.Cache.Hits) != hits {
		t.Fatalf("report hits %d, results saw %d", rep.Cache.Hits, hits)
	}
	if rep.FleetIOPS <= 0 || rep.ClockSec <= 0 {
		t.Fatalf("fleet perf not measured: IOPS %v clock %v", rep.FleetIOPS, rep.ClockSec)
	}
	var hostWrites int
	for _, d := range rep.PerDrive {
		hostWrites += d.HostWrites
	}
	if int64(hostWrites) != rep.Cache.Writebacks {
		t.Fatalf("drives saw %d writes, cache wrote back %d", hostWrites, rep.Cache.Writebacks)
	}
}

// TestArrayStriping pins the address math: with StripePages=1,
// consecutive volume pages land on consecutive drives.
func TestArrayStriping(t *testing.T) {
	cfg := testConfig(4)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for p := 0; p < 8; p++ {
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range mustDrain(t, a) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Drive != r.Page%4 {
			t.Fatalf("page %d served by drive %d, want %d", r.Page, r.Drive, r.Page%4)
		}
	}

	wide := testConfig(2)
	wide.StripePages = 4
	w, err := New(wide)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, tc := range []struct{ page, drive int }{
		{0, 0}, {3, 0}, {4, 1}, {7, 1}, {8, 0}, {12, 1},
	} {
		if drv, _ := w.lay.locate(tc.page); drv != tc.drive {
			t.Fatalf("stripe 4: page %d on drive %d, want %d", tc.page, drv, tc.drive)
		}
	}
}

// TestWriteBackConsistency pins write-back ordering against the FTL:
// overwrites coalesce in the buffer, Flush lands the newest version in
// first-dirtied order, and once clean evictions push the pages out of
// the cache, the drives serve the newest data back.
func TestWriteBackConsistency(t *testing.T) {
	cfg := testConfig(2)
	cfg.Cache = CacheConfig{Pages: 32}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const n = 12
	submit := func(p, version int) {
		t.Helper()
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, version)}); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < n; p++ {
		submit(p, 0)
	}
	// Overwrite half while still buffered: the buffer must coalesce.
	for p := 0; p < n; p += 2 {
		submit(p, 1)
	}
	mustDrain(t, a)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	rep := a.Report()
	if rep.Cache.Writebacks != n {
		t.Fatalf("writebacks %d, want %d (overwrites must coalesce)", rep.Cache.Writebacks, n)
	}
	var hostWrites int
	for _, d := range rep.PerDrive {
		hostWrites += d.HostWrites
	}
	if hostWrites != n {
		t.Fatalf("drives saw %d writes, want %d", hostWrites, n)
	}

	// Evict the targets with clean fills of other pages, then read the
	// targets from the drives and require the newest versions.
	for p := 100; p < 100+2*int(32); p++ {
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, a)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Page: p}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range mustDrain(t, a) {
		if r.Err != nil {
			t.Fatalf("read page %d: %v", r.Page, r.Err)
		}
		version := 0
		if r.Page%2 == 0 {
			version = 1
		}
		if !bytes.Equal(r.Data, pagePattern(a, r.Page, version)) {
			t.Fatalf("page %d served stale version after write-back", r.Page)
		}
	}
}

// TestQoSFairness pins the token-rate ceiling: a greedy tenant's
// completed ops can never exceed its burst plus rate × modelled time,
// and an unthrottled tenant is never throttled alongside it.
func TestQoSFairness(t *testing.T) {
	cfg := testConfig(2)
	cfg.Tenants = []TenantConfig{
		{Name: "greedy", Rate: 50, Burst: 5},
		{Name: "latency"},
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const greedyOps, latencyOps = 60, 30
	for i := 0; i < greedyOps; i++ {
		if err := a.Submit(Op{Tenant: "greedy", Write: true, Page: i, Data: pagePattern(a, i, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < latencyOps; i++ {
		p := 128 + i
		if err := a.Submit(Op{Tenant: "latency", Write: true, Page: p, Data: pagePattern(a, p, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	res := mustDrain(t, a)
	if len(res) != greedyOps+latencyOps {
		t.Fatalf("%d completions, want %d", len(res), greedyOps+latencyOps)
	}
	rep := a.Report()
	var greedy, latency TenantStats
	for _, ts := range rep.Tenants {
		switch ts.Name {
		case "greedy":
			greedy = ts
		case "latency":
			latency = ts
		}
	}
	// Token conservation: every op spent a token; tokens available =
	// burst + rate × modelled time.
	ceiling := 5 + 50*rep.ClockSec
	if float64(greedy.Writes) > ceiling+1e-9 {
		t.Fatalf("greedy tenant did %d ops with a ceiling of %.2f (clock %.3fs)",
			greedy.Writes, ceiling, rep.ClockSec)
	}
	if greedy.Throttled == 0 {
		t.Fatal("greedy tenant was never throttled")
	}
	if latency.Throttled != 0 {
		t.Fatalf("unthrottled tenant throttled %d times", latency.Throttled)
	}
	if latency.Writes != latencyOps {
		t.Fatalf("latency tenant completed %d/%d", latency.Writes, latencyOps)
	}
	if rep.QoSStalls == 0 {
		t.Fatal("scheduler never stalled: the rate limit did no work")
	}
}

// fleetWorkload drives a 16-drive array through a deterministic mixed
// workload and returns the report JSON plus a digest of the completion
// stream.
func fleetWorkload(t *testing.T, drives int) ([]byte, string) {
	t.Helper()
	cfg := testConfig(drives)
	cfg.Seed = 900913
	cfg.Cache = CacheConfig{Pages: 48}
	cfg.Tenants = []TenantConfig{
		{Name: "scan", Rate: 4000, Burst: 16},
		{Name: "oltp"},
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// A fixed LCG generates the op stream: no wall-clock, no math/rand.
	state := uint64(0xabcdef12345)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	var digest string
	for round := 0; round < 6; round++ {
		for i := 0; i < 60; i++ {
			tenant := "scan"
			if i%3 == 0 {
				tenant = "oltp"
			}
			page := next(a.VolumePages())
			if next(10) < 6 {
				if err := a.Submit(Op{Tenant: tenant, Write: true, Page: page, Data: pagePattern(a, page, round)}); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := a.Submit(Op{Tenant: tenant, Page: page}); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := a.Drain()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			errBit := 0
			if r.Err != nil {
				errBit = 1
			}
			digest += fmt.Sprintf("%s/%v/%d/%d/%v/%d/%d;", r.Tenant, r.Write, r.Page, r.Drive, r.CacheHit, r.Latency, errBit)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	js, err := a.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js, digest
}

// TestFleetDeterminism is the acceptance pin: the same seed and
// submission sequence over 16 concurrently-executing drives produces a
// byte-identical fleet report and an identical completion stream.
func TestFleetDeterminism(t *testing.T) {
	js1, digest1 := fleetWorkload(t, 16)
	js2, digest2 := fleetWorkload(t, 16)
	if digest1 != digest2 {
		t.Fatal("completion streams diverged between identical runs")
	}
	if !bytes.Equal(js1, js2) {
		t.Fatalf("fleet reports diverged between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", js1, js2)
	}
}

// BenchmarkFleetIOPS measures fleet throughput scaling across drive
// counts.
func BenchmarkFleetIOPS(b *testing.B) {
	for _, drives := range []int{1, 4, 16} {
		// '=' keeps the drive count apart from the -GOMAXPROCS suffix go
		// test appends to benchmark names.
		b.Run(fmt.Sprintf("drives=%d", drives), func(b *testing.B) {
			cfg := testConfig(drives)
			cfg.Cache = CacheConfig{Pages: 64}
			a, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			// Warm fill: one write per cached page plus a striped tail.
			warm := 96
			if warm > a.VolumePages() {
				warm = a.VolumePages()
			}
			data := make([]byte, a.PageBytes())
			for p := 0; p < warm; p++ {
				if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: data}); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := a.Drain(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Three hot reads (a set sized to the cache) per cold
				// sweep read, so the archived hit rate is meaningful even
				// at -benchtime 1x.
				page := warm - 64 + (i*13)%64
				if i%4 == 3 {
					page = (i * 7) % warm
				}
				if err := a.Submit(Op{Tenant: "default", Page: page}); err != nil {
					b.Fatal(err)
				}
				if i%64 == 63 {
					if _, err := a.Drain(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if _, err := a.Drain(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			rep := a.Report()
			b.ReportMetric(rep.FleetIOPS, "fleet_iops")
			b.ReportMetric(rep.Cache.HitRate(), "cache_hit_rate")
		})
	}
}
