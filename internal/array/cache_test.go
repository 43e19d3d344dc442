package array

import "testing"

// policyMakers enumerates every eviction policy for the conformance
// suite; new policies join here and inherit the whole suite.
var policyMakers = []struct {
	name string
	make func() Policy
}{
	{"lru", func() Policy { return NewLRU() }},
	{"clock", func() Policy { return NewClock() }},
}

// TestPolicyConformance runs the policy-agnostic contract every
// eviction policy must satisfy: victims are always resident, each
// admitted page is evicted exactly once, and Len tracks residency.
func TestPolicyConformance(t *testing.T) {
	for _, pm := range policyMakers {
		t.Run(pm.name, func(t *testing.T) {
			p := pm.make()
			if p.Name() != pm.name {
				t.Fatalf("Name() = %q, want %q", p.Name(), pm.name)
			}
			if p.Len() != 0 {
				t.Fatalf("fresh policy Len = %d", p.Len())
			}
			// Touch of a non-resident page is a no-op.
			p.Touch(99)
			if p.Len() != 0 {
				t.Fatalf("no-op Touch changed Len to %d", p.Len())
			}

			const k = 17
			for i := 0; i < k; i++ {
				p.Admit(i)
			}
			if p.Len() != k {
				t.Fatalf("Len = %d after %d admits", p.Len(), k)
			}
			seen := make(map[int]bool)
			for p.Len() > 0 {
				v := p.Victim()
				if v < 0 || v >= k {
					t.Fatalf("victim %d never admitted", v)
				}
				if seen[v] {
					t.Fatalf("page %d evicted twice", v)
				}
				seen[v] = true
			}
			if len(seen) != k {
				t.Fatalf("evicted %d distinct pages, want %d", len(seen), k)
			}
		})
	}
}

// TestPolicyConformanceInterleaved drives each policy through a fixed
// admit/touch/victim script twice and requires the identical
// victim sequence — the determinism the fleet report depends on.
func TestPolicyConformanceInterleaved(t *testing.T) {
	script := func(p Policy) []int {
		var victims []int
		for i := 0; i < 8; i++ {
			p.Admit(i)
		}
		p.Touch(0)
		p.Touch(3)
		victims = append(victims, p.Victim(), p.Victim())
		p.Admit(8)
		p.Touch(8)
		for p.Len() > 0 {
			victims = append(victims, p.Victim())
		}
		return victims
	}
	for _, pm := range policyMakers {
		t.Run(pm.name, func(t *testing.T) {
			a, b := script(pm.make()), script(pm.make())
			if len(a) != len(b) {
				t.Fatalf("victim counts differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("victim %d differs: %d vs %d (full: %v vs %v)", i, a[i], b[i], a, b)
				}
			}
		})
	}
}

// TestLRUOrder pins exact LRU semantics: the least recently used page
// goes first, and Touch refreshes recency.
func TestLRUOrder(t *testing.T) {
	p := NewLRU()
	p.Admit(1)
	p.Admit(2)
	p.Admit(3)
	p.Touch(1) // order (most→least recent): 1, 3, 2
	if v := p.Victim(); v != 2 {
		t.Fatalf("victim = %d, want 2", v)
	}
	if v := p.Victim(); v != 3 {
		t.Fatalf("victim = %d, want 3", v)
	}
	if v := p.Victim(); v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
}

// TestClockSecondChance pins the second-chance property: a page whose
// reference bit is set when the hand arrives survives that sweep.
func TestClockSecondChance(t *testing.T) {
	p := NewClock()
	p.Admit(1)
	p.Admit(2)
	p.Admit(3)
	// All reference bits set: the first victim is the oldest (FIFO).
	if v := p.Victim(); v != 1 {
		t.Fatalf("first victim = %d, want 1", v)
	}
	p.Touch(2) // re-referenced: must survive the next sweep
	if v := p.Victim(); v != 3 {
		t.Fatalf("second victim = %d, want 3 (2 had its second chance)", v)
	}
	if v := p.Victim(); v != 2 {
		t.Fatalf("third victim = %d, want 2", v)
	}
}

func mustCache(t *testing.T, cfg CacheConfig) *hostCache {
	t.Helper()
	c, err := newHostCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
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
	// Page 2 is dirty; filling 4 evicts it (2 was touched after 3? no:
	// order most→least recent is 3, 2) — victim is 2, dirty.
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
	if c.dirtyCount() != 3 {
		t.Fatalf("dirty count %d, want 3", c.dirtyCount())
	}
	if c.stats.DirtyHighWaterMark != 3 {
		t.Fatalf("dirty high-water mark %d, want 3", c.stats.DirtyHighWaterMark)
	}

	// Partial flush takes the oldest first.
	part := c.flush(nil, 1)
	if len(part) != 1 || part[0].page != 5 || part[0].data[0] != 50 {
		t.Fatalf("partial flush = %+v, want page 5", part)
	}
	rest := c.flush(nil, 0)
	if len(rest) != 2 || rest[0].page != 3 || rest[1].page != 9 {
		t.Fatalf("flush order = %+v, want [3 9]", rest)
	}
	if rest[0].data[0] != 31 {
		t.Fatalf("flush of overwritten page carried stale data %d", rest[0].data[0])
	}
	if c.dirtyCount() != 0 {
		t.Fatalf("dirty count %d after full flush", c.dirtyCount())
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
	if c.dirtyCount() != 1 {
		t.Fatal("fill cleaned a dirty page")
	}
}
