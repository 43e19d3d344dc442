package array

import (
	"fmt"
	"slices"
	"testing"
)

func mustCache(t *testing.T, cfg CacheConfig) *hostCache {
	t.Helper()
	c, err := newHostCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLRUOrder pins exact LRU semantics: the least recently used page
// goes first, and a hit refreshes recency.
func TestLRUOrder(t *testing.T) {
	c := mustCache(t, CacheConfig{Pages: 3})
	for p := 1; p <= 3; p++ {
		c.put(p, []byte{byte(p)}, false)
	}
	c.lookup(1) // order (most→least recent): 1, 3, 2
	for i, want := range []int{2, 3, 1} {
		c.put(10+i, []byte{0}, false)
		if _, ok := c.entries[want]; ok {
			t.Fatalf("eviction %d kept page %d, want it evicted", i, want)
		}
	}
}

// TestCacheRejectsUnknownPolicy: "lru" and the empty string are the only
// eviction policies.
func TestCacheRejectsUnknownPolicy(t *testing.T) {
	for _, name := range []string{"", "lru"} {
		if c := mustCache(t, CacheConfig{Pages: 4, Policy: name}); c.stats.PolicyName != "lru" {
			t.Fatalf("policy %q reports %q", name, c.stats.PolicyName)
		}
	}
	if _, err := newHostCache(CacheConfig{Pages: 4, Policy: "clock"}); err == nil {
		t.Fatal(`policy "clock" accepted`)
	}
}

// TestCacheCounters pins hit/miss/evict/writeback accounting.
func TestCacheCounters(t *testing.T) {
	c := mustCache(t, CacheConfig{Pages: 2})
	if _, ok := c.lookup(1); ok {
		t.Fatal("hit in empty cache")
	}
	if _, ok := c.put(1, []byte{1}, false); ok {
		t.Fatal("eviction from non-full cache")
	}
	if data, ok := c.lookup(1); !ok || data[0] != 1 {
		t.Fatal("miss after put")
	}
	c.put(2, []byte{2}, true)
	// Cache full; a third page evicts the LRU victim (page 1, clean).
	if wb, ok := c.put(3, []byte{3}, false); ok {
		t.Fatalf("clean eviction surfaced writeback for page %d", wb.page)
	}
	// Order most→least recent is 3, 2: filling 4 evicts page 2, dirty.
	wb, ok := c.put(4, []byte{4}, false)
	if !ok || wb.page != 2 || wb.data[0] != 2 {
		t.Fatalf("dirty eviction: got %+v, want page 2", wb)
	}
	s := c.stats
	if s.Hits != 1 || s.Misses != 1 || s.Evictions != 2 || s.Writebacks != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", got)
	}
}

// TestCacheFlushOrder pins the write-back buffer's deterministic
// ordering: dirty pages flush in first-dirtied order, an overwrite of
// an already-dirty page keeps its original position, and flushed
// entries stay resident but clean.
func TestCacheFlushOrder(t *testing.T) {
	c := mustCache(t, CacheConfig{Pages: 8})
	c.put(5, []byte{50}, true)
	c.put(3, []byte{30}, true)
	c.put(9, []byte{90}, true)
	c.put(3, []byte{31}, true) // overwrite: newest data, original order slot
	if c.dirty.Len() != 3 {
		t.Fatalf("dirty count %d, want 3", c.dirty.Len())
	}
	if c.stats.DirtyHighWaterMark != 3 {
		t.Fatalf("dirty high-water mark %d, want 3", c.stats.DirtyHighWaterMark)
	}

	wbs := c.flush(nil)
	if len(wbs) != 3 || wbs[0].page != 5 || wbs[1].page != 3 || wbs[2].page != 9 {
		t.Fatalf("flush order = %+v, want [5 3 9]", wbs)
	}
	if wbs[1].data[0] != 31 {
		t.Fatalf("flush of overwritten page carried stale data %d", wbs[1].data[0])
	}
	if c.dirty.Len() != 0 {
		t.Fatalf("dirty count %d after flush", c.dirty.Len())
	}
	// Flushed pages remain resident (clean): their next eviction must
	// not write back again.
	if data, ok := c.lookup(3); !ok || data[0] != 31 {
		t.Fatal("flushed page left the cache")
	}
	if c.stats.Writebacks != 3 {
		t.Fatalf("writebacks %d, want 3", c.stats.Writebacks)
	}
}

// TestCacheFillDoesNotClobberDirty pins the read-fill race rule: a
// drive fill arriving after a newer host write must not overwrite the
// dirty resident copy.
func TestCacheFillDoesNotClobberDirty(t *testing.T) {
	c := mustCache(t, CacheConfig{Pages: 4})
	c.put(7, []byte{2}, true) // host write
	if _, ok := c.fill(7, []byte{1}); ok {
		t.Fatal("fill of resident page evicted something")
	}
	data, ok := c.lookup(7)
	if !ok || data[0] != 2 {
		t.Fatalf("stale fill clobbered dirty page: got %v", data)
	}
	if c.dirty.Len() != 1 {
		t.Fatal("fill cleaned a dirty page")
	}
}

// refLRU is the naive reference the host cache is checked against: a
// slice in recency order (most recent first) and a slice of dirty pages
// in first-dirtied order.
type refLRU struct {
	cap   int
	order []refEntry
	dirty []int
	stats CacheStats
}

type refEntry struct {
	page  int
	data  byte
	dirty bool
}

func (r *refLRU) find(page int) int {
	return slices.IndexFunc(r.order, func(e refEntry) bool { return e.page == page })
}

// touch moves order[i] to the front and returns it.
func (r *refLRU) touch(i int) *refEntry {
	e := r.order[i]
	r.order = slices.Insert(slices.Delete(r.order, i, i+1), 0, e)
	return &r.order[0]
}

func (r *refLRU) lookup(page int) (byte, bool) {
	if r.cap == 0 {
		return 0, false
	}
	i := r.find(page)
	if i < 0 {
		r.stats.Misses++
		return 0, false
	}
	r.stats.Hits++
	return r.touch(i).data, true
}

func (r *refLRU) put(page int, data byte, dirty bool) (victim refEntry, ok bool) {
	var e *refEntry
	if i := r.find(page); i >= 0 {
		e = r.touch(i)
		e.data = data
	} else {
		if len(r.order) == r.cap {
			victim = r.order[len(r.order)-1]
			r.order = r.order[:len(r.order)-1]
			r.stats.Evictions++
			if victim.dirty {
				r.dirty = slices.DeleteFunc(r.dirty, func(p int) bool { return p == victim.page })
				r.stats.Writebacks++
				ok = true
			}
		}
		r.order = slices.Insert(r.order, 0, refEntry{page: page, data: data})
		e = &r.order[0]
	}
	if dirty && !e.dirty {
		e.dirty = true
		r.dirty = append(r.dirty, page)
	}
	r.stats.DirtyHighWaterMark = max(r.stats.DirtyHighWaterMark, len(r.dirty))
	return victim, ok
}

func (r *refLRU) fill(page int, data byte) (refEntry, bool) {
	if r.find(page) >= 0 {
		return refEntry{}, false
	}
	return r.put(page, data, false)
}

func (r *refLRU) flush() []int {
	out := r.dirty
	r.dirty = nil
	for i := range r.order {
		r.order[i].dirty = false
	}
	r.stats.Writebacks += int64(len(out))
	return out
}

// TestHostCacheMatchesReferenceLRU drives the host cache and the naive
// reference through one seeded stream of puts, fills, lookups and
// flushes. After every call the two must agree on the residents (in
// recency order, with their bytes and dirty bits), the eviction victim,
// the order in which dirty pages are written back, and every counter.
// Write-back stores go back to the spare list once compared, so a store
// reused too early shows up as wrong bytes.
func TestHostCacheMatchesReferenceLRU(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 5, 16} {
		t.Run(fmt.Sprintf("pages=%d", capacity), func(t *testing.T) {
			c := mustCache(t, CacheConfig{Pages: capacity})
			ref := &refLRU{cap: capacity}
			state := uint64(capacity)*0x9e3779b97f4a7c15 + 1
			next := func(n int) int {
				state = state*6364136223846793005 + 1442695040888963407
				return int((state >> 33) % uint64(n))
			}
			universe := 2*capacity + 3
			checkVictim := func(step int, wb writeback, ok bool, want refEntry, wantOK bool) {
				t.Helper()
				if ok != wantOK || ok && (wb.page != want.page || wb.data[0] != want.data) {
					t.Fatalf("step %d: write-back victim %v/%v, want page %d byte %d/%v",
						step, wb, ok, want.page, want.data, wantOK)
				}
				if ok {
					c.recycle(wb.data)
				}
			}
			for step := 0; step < 4000; step++ {
				page, data := next(universe), byte(step)
				switch op := next(10); {
				case op < 4:
					got, hit := c.lookup(page)
					want, wantHit := ref.lookup(page)
					if hit != wantHit || hit && got[0] != want {
						t.Fatalf("step %d: lookup(%d) = %v/%v, want %d/%v", step, page, got, hit, want, wantHit)
					}
				case op < 8 && capacity > 0:
					dirty := op < 6
					wb, ok := c.put(page, append(c.take(), data), dirty)
					victim, wantOK := ref.put(page, data, dirty)
					checkVictim(step, wb, ok, victim, wantOK)
				case op < 9 && capacity > 0:
					wb, ok := c.fill(page, []byte{data})
					victim, wantOK := ref.fill(page, data)
					checkVictim(step, wb, ok, victim, wantOK)
				default:
					wbs := c.flush(nil)
					want := ref.flush()
					if len(wbs) != len(want) {
						t.Fatalf("step %d: flushed %d pages, want %v", step, len(wbs), want)
					}
					for i, wb := range wbs {
						if wb.page != want[i] {
							t.Fatalf("step %d: flush order %v, want %v", step, wbs, want)
						}
						c.recycle(wb.data)
					}
				}
				var got []refEntry
				for nd := c.recent.front(); nd != nil && len(got) < c.recent.Len(); nd = nd.next {
					e := c.entries[nd.page]
					got = append(got, refEntry{page: nd.page, data: e.data[0], dirty: e.dirty})
				}
				if len(c.entries) != len(ref.order) || !slices.Equal(got, ref.order) {
					t.Fatalf("step %d: residents %v (%d entries), want %v", step, got, len(c.entries), ref.order)
				}
				var dirty []int
				for nd := c.dirty.front(); nd != nil && len(dirty) < c.dirty.Len(); nd = nd.next {
					dirty = append(dirty, nd.page)
				}
				if !slices.Equal(dirty, ref.dirty) {
					t.Fatalf("step %d: dirty order %v, want %v", step, dirty, ref.dirty)
				}
				ref.stats.PolicyName, ref.stats.Capacity = "lru", capacity
				if c.stats != ref.stats {
					t.Fatalf("step %d: stats %+v, want %+v", step, c.stats, ref.stats)
				}
			}
		})
	}
}
