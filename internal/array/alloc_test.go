package array

import (
	"testing"
	"time"
)

// TestArrayRoundZeroAlloc pins the whole per-round hot path — QoS pick,
// round pipeline, dispatch lean reads, controller decode, result
// surfacing — at zero steady-state allocations. Ops carry caller-owned
// destination buffers (one per in-flight op; sharing would race) and
// every piece of round scratch is array-owned and reused.
func TestArrayRoundZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	cfg := testConfig(4)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	n := a.VolumePages()
	data := make([]byte, a.PageBytes())
	for p := 0; p < n; p++ {
		if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Drain(); err != nil {
		t.Fatal(err)
	}

	const batch = 16
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = make([]byte, a.PageBytes())
	}
	page := 0
	cycle := func() {
		for i := 0; i < batch; i++ {
			page = (page + 13) % n
			if err := a.Submit(Op{Tenant: "default", Page: page, Buf: bufs[i]}); err != nil {
				t.Fatal(err)
			}
		}
		for a.sched.pending() > 0 {
			if _, err := a.round(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm all lazily-grown scratch: queue capacity, round scratch,
	// dispatch job pools, per-partition FTL buffers.
	for i := 0; i < 8; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(30, cycle); avg != 0 {
		t.Fatalf("steady-state array round allocates %.2f/batch, want 0", avg)
	}
}

// stubMembers swaps every member stack for an in-memory page store whose
// worker allocates nothing, isolating the array's own round pipeline:
// below it a write is not allocation-free (dispatch allocates a result per
// write, and the NAND model recycles only a bounded number of erased page
// stores), and that is not the array's to fix. The returned func stops the
// stub workers.
func stubMembers(a *Array) (stop func()) {
	var stubs []*drive
	for _, s := range a.slots {
		s.d.close()
		d := &drive{idx: s.id, jobs: make(chan driveJob), done: make(chan struct{})}
		store := make([]byte, a.perDriveLPAs*a.pageBytes)
		go func() {
			defer close(d.done)
			for job := range d.jobs {
				for i := range job.batch {
					op := &job.batch[i]
					page := store[op.lpa*a.pageBytes:][:a.pageBytes]
					if op.write {
						copy(page, op.data)
						op.fill(nil, 200*time.Microsecond, nil)
					} else {
						op.fill(op.dst[:copy(op.dst, page)], 50*time.Microsecond, nil)
					}
				}
				d.roundElapsed = time.Duration(len(job.batch)) * 50 * time.Microsecond
				job.wg.Done()
			}
		}()
		s.d = d
		stubs = append(stubs, d)
	}
	return func() {
		for _, d := range stubs {
			close(d.jobs)
			<-d.done
		}
	}
}

// TestParityRoundZeroAlloc pins the parity-mode round next to the clean
// one, warmed: read-modify-write planning, the deduplicated read set,
// reconstruction into the caller's buffer, the four phases and the
// parity XOR all run on array-owned scratch. Reads, direct and
// reconstructed, are measured over the real stack with the cache off;
// rounds that also overwrite (and forward reads of what they overwrote)
// over stub members, healthy and with a dead slot, and once more with
// the cache on: buffered writes, fills, dirty evictions and watermark
// flushes then pass page stores along instead of allocating them. The
// ops are queued up front — more than the cache's spare list can supply,
// so Submit's copies are partly the caller's allocation, not the
// round's — and each measured run is one round.
func TestParityRoundZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, tc := range []struct {
		name                      string
		stub, overwrite, degraded bool
		cache                     int
	}{
		{"reads/real-members/degraded", false, false, true, 0},
		{"read-overwrite/stub-members", true, true, false, 0},
		{"read-overwrite/stub-members/degraded", true, true, true, 0},
		{"read-overwrite/stub-members/cache", true, true, false, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(4)
			cfg.Redundancy = RedundancyParity
			cfg.Cache = CacheConfig{Pages: tc.cache}
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if tc.stub {
				defer stubMembers(a)()
			}
			n := a.VolumePages() / 4
			data := make([]byte, a.PageBytes())
			for p := 0; p < n; p++ {
				if err := a.Submit(Op{Tenant: "default", Write: true, Page: p, Data: data}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := a.Drain(); err != nil {
				t.Fatal(err)
			}
			if tc.degraded {
				if tc.stub {
					a.slots[1].d = nil // kill would ask the stub for a report
					a.slots[1].state = Dead
				} else {
					a.kill(a.slots[1])
				}
			}

			const warm, runs = 40, 30
			bufs := make([][]byte, cfg.Drives*8) // one per op of a round (the default RoundOps)
			for i := range bufs {
				bufs[i] = make([]byte, a.PageBytes())
			}
			page := 0
			for r := 0; r < warm+runs+1; r++ { // AllocsPerRun adds one warm-up call
				for i := range bufs {
					page = (page + 13) % n
					op := Op{Tenant: "default", Page: page, Buf: bufs[i]}
					if tc.overwrite && i%4 == 1 {
						op = Op{Tenant: "default", Write: true, Page: page, Data: data}
					} else if i%4 == 2 {
						op.Page = (page + n - 13) % n // the page the previous op touched
					}
					if err := a.Submit(op); err != nil {
						t.Fatal(err)
					}
				}
			}
			dirtyEvicted := false
			round := func() {
				res, err := a.round()
				if err != nil {
					t.Fatal(err)
				}
				for i := range res {
					if res[i].Err != nil {
						t.Fatalf("page %d: %v", res[i].Page, res[i].Err)
					}
				}
				dirtyEvicted = dirtyEvicted || len(a.pendingWB) > 0 // a fill's dirty victim
			}
			for i := 0; i < warm; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(runs, round); avg != 0 {
				t.Fatalf("steady-state parity round allocates %.2f/round, want 0", avg)
			}
			var degraded int64
			for _, s := range a.slots {
				degraded += s.degradedReads
			}
			if a.sched.pending() != 0 || tc.degraded && degraded == 0 {
				t.Fatalf("rounds did not run as planned: %d ops pending, %d degraded reads", a.sched.pending(), degraded)
			}
			if high := a.cache.highWater(); tc.cache > 0 && (!dirtyEvicted || a.cache.stats.DirtyHighWaterMark < high) {
				t.Fatalf("cached rounds did not run as planned: dirty eviction %v, dirty high-water mark %d (flush at %d)",
					dirtyEvicted, a.cache.stats.DirtyHighWaterMark, high)
			}
		})
	}
}
