package array

import (
	"bytes"
	"fmt"
	"testing"
)

// TestOpBufHonoured pins the Op.Buf contract in every mode, healthy and
// degraded: a host read decodes into the caller's buffer and Result.Data
// aliases it, whether the page was read directly, served by the mirror
// partner, reconstructed from the row, forwarded from a write of the
// same round, or hit in the cache.
func TestOpBufHonoured(t *testing.T) {
	for _, mode := range digestModes {
		for _, degraded := range []bool{false, true} {
			for _, cached := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/degraded=%v/cache=%v", mode, degraded, cached), func(t *testing.T) {
					cfg := testConfig(4)
					cfg.Redundancy = mode
					if cached {
						cfg.Cache = CacheConfig{Pages: 64}
					}
					a, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer a.Close()
					const n = 32
					for p := 0; p < n; p++ {
						if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: pagePattern(a, p, 0)}); err != nil {
							t.Fatal(err)
						}
					}
					mustDrain(t, a)
					if !cached {
						if err := a.Flush(); err != nil {
							t.Fatal(err)
						}
					}
					if degraded {
						a.kill(a.slots[0]) // no spare: the slot stays dead
					}
					// One overwrite followed by a read of the same page in the
					// same round, then a read of every page.
					version := make([]int, n)
					version[5] = 1
					if err := a.Submit(Op{Tenant: "default", Write: true, Page: 5, Data: pagePattern(a, 5, 1)}); err != nil {
						t.Fatal(err)
					}
					bufs := make([][]byte, n+1)
					for i := range bufs {
						bufs[i] = make([]byte, a.PageBytes())
						if err := a.Submit(Op{Tenant: "default", Page: (5 + i) % n, Buf: bufs[i], Tag: uint64(i)}); err != nil {
							t.Fatal(err)
						}
					}
					served, forwarded := 0, 0
					for _, r := range mustDrain(t, a) {
						if r.Write {
							continue
						}
						if r.Err != nil {
							if mode == RedundancyNone && degraded {
								continue // the dead drive's pages are honest errors
							}
							t.Fatalf("read page %d: %v", r.Page, r.Err)
						}
						if len(r.Data) != a.PageBytes() || &r.Data[0] != &bufs[r.Tag][0] {
							t.Fatalf("page %d (drive %d, cache hit %v): Result.Data does not alias Op.Buf", r.Page, r.Drive, r.CacheHit)
						}
						if !bytes.Equal(r.Data, pagePattern(a, r.Page, version[r.Page])) {
							t.Fatalf("page %d: wrong content in the caller's buffer", r.Page)
						}
						served++
						if !r.CacheHit && r.Latency == hitLatency {
							forwarded++
						}
					}
					rep := a.Report()
					if served == 0 {
						t.Fatal("no read was served")
					}
					if cached && rep.Cache.Hits == 0 {
						t.Fatal("the cached run never hit the cache")
					}
					if !cached && mode == RedundancyParity && forwarded == 0 {
						t.Fatal("the read after the same-round overwrite was not forwarded")
					}
					if !cached && degraded && mode != RedundancyNone && rep.Totals.DegradedReads == 0 {
						t.Fatal("the degraded run served no degraded read")
					}
				})
			}
		}
	}
}

// TestSubmitCopySurvivesRecycling pins page-store ownership on the write
// path: Submit's copy belongs to the array, so a caller that scribbles
// over its Op.Data right after Submit changes nothing, and stores that
// the one-page cache recycles over and over never carry one page's
// bytes into another. Every round of the loop reads the newest version
// of a page back three ways: forwarded from the write-back of the round
// that evicts it, from the cache, and from the drive.
func TestSubmitCopySurvivesRecycling(t *testing.T) {
	cfg := testConfig(4)
	cfg.Redundancy = RedundancyParity
	cfg.Cache = CacheConfig{Pages: 1}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	buf := make([]byte, a.PageBytes())
	write := func(page, version int) {
		copy(buf, pagePattern(a, page, version))
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: page, Data: buf}); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xEE
		}
	}
	// read drains one read of page and checks it returns version.
	read := func(page, version int, how string) Result {
		t.Helper()
		if err := a.Submit(Op{Tenant: "default", Page: page}); err != nil {
			t.Fatal(err)
		}
		res := mustDrain(t, a)
		r := res[len(res)-1]
		if r.Err != nil {
			t.Fatalf("%s read of page %d: %v", how, page, r.Err)
		}
		if !bytes.Equal(r.Data, pagePattern(a, page, version)) {
			t.Fatalf("%s read of page %d: not version %d", how, page, version)
		}
		return r
	}
	const p, z, versions = 7, 40, 12
	write(z, 0)
	mustDrain(t, a)
	for v := 1; v <= versions; v++ {
		// Writing q evicts p while it is dirty, so the read of p later
		// in the same round is forwarded from p's write-back.
		write(p, v)
		write(8+v, v)
		if r := read(p, v, "forwarded"); r.CacheHit || r.Latency != hitLatency {
			t.Fatalf("version %d: read of page %d not forwarded (cache hit %v, latency %v)", v, p, r.CacheHit, r.Latency)
		}
		if r := read(p, v, "cached"); !r.CacheHit {
			t.Fatalf("version %d: read of page %d missed the cache", v, p)
		}
		read(z, 0, "evicting")
		if r := read(p, v, "drive"); r.CacheHit || r.Latency == hitLatency {
			t.Fatalf("version %d: read of page %d not served by a drive", v, p)
		}
	}
	for v := 1; v <= versions; v++ {
		read(8+v, v, "final")
	}
}
