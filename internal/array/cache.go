package array

import "fmt"

// CacheConfig parametrises the host-side cache: a least-recently-used
// read cache and a write-back buffer. Once a round leaves
// max(3·Pages/4, 1) dirty pages in the buffer, it writes every dirty
// page back, in first-dirtied order.
type CacheConfig struct {
	// Pages is the cache capacity in volume pages (0 disables caching:
	// every read misses to a drive and every write dispatches
	// immediately).
	Pages int
	// Policy names the eviction policy. Least-recently-used is the only
	// one: "lru" or the empty string.
	Policy string
}

// CacheStats is the cache's observable climate, merged into the fleet
// report.
type CacheStats struct {
	PolicyName string `json:"policy"`
	Capacity   int    `json:"capacity_pages"`
	Hits       int64  `json:"hits"`
	Misses     int64  `json:"misses"`
	// Evictions counts pages pushed out by capacity pressure;
	// Writebacks counts dirty pages written to a drive for any reason
	// (eviction of a dirty page, watermark flush, or a final Flush).
	Evictions  int64 `json:"evictions"`
	Writebacks int64 `json:"writebacks"`
	// WritebackLost counts dirty pages whose write-back could not land
	// on any drive (dead target with no redundancy to absorb it, or a
	// persistent injected fault). The page's newest version is gone and
	// this counter is the honest record of it.
	WritebackLost int64 `json:"writeback_lost"`
	// DirtyHighWaterMark is the largest number of dirty pages the
	// write-back buffer ever held.
	DirtyHighWaterMark int `json:"dirty_high_water_mark"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// cacheEntry is one resident volume page.
type cacheEntry struct {
	data  []byte
	dirty bool
	// lru is the entry's position in the recency list.
	lru *pageNode
	// fifo is the entry's position in the dirty FIFO (nil when clean):
	// write-back order is strictly first-dirtied-first-flushed, so the
	// drives below observe host writes in a stable, reproducible order.
	fifo *pageNode
}

// hostCache is the host-side read cache and write-back buffer. It is
// confined to the array's front-end goroutine — determinism comes from
// single-threaded access, not locking. Submit, fills and flush copies
// take their page stores from its spare list, which holds at most cap of
// them; the package comment follows a store from hop to hop.
type hostCache struct {
	cap     int
	entries map[int]*cacheEntry
	recent  pageList // page numbers, most recently used first
	dirty   pageList // page numbers in first-dirtied order
	spare   [][]byte // empty page stores nobody holds
	stats   CacheStats
}

// writeback is one dirty page leaving the cache for a drive. It owns
// data until its round has executed.
type writeback struct {
	page int
	data []byte
}

// take returns an empty page store for a copy to append into: one off
// the spare list, or nil (so the append allocates) when it is empty.
func (c *hostCache) take() []byte {
	n := len(c.spare)
	if n == 0 {
		return nil
	}
	store := c.spare[n-1]
	c.spare[n-1] = nil
	c.spare = c.spare[:n-1]
	return store
}

// recycle puts a page store nobody holds any more on the spare list,
// unless the list is full.
func (c *hostCache) recycle(store []byte) {
	if len(c.spare) < c.cap {
		c.spare = append(c.spare, store[:0])
	}
}

func newHostCache(cfg CacheConfig) (*hostCache, error) {
	if cfg.Pages < 0 {
		return nil, fmt.Errorf("array: negative cache capacity %d", cfg.Pages)
	}
	if cfg.Policy != "" && cfg.Policy != "lru" {
		return nil, fmt.Errorf("array: unknown eviction policy %q", cfg.Policy)
	}
	c := &hostCache{
		cap:     cfg.Pages,
		entries: make(map[int]*cacheEntry),
	}
	c.stats.PolicyName = "lru"
	c.stats.Capacity = cfg.Pages
	return c, nil
}

// enabled reports whether the cache holds anything at all.
func (c *hostCache) enabled() bool { return c.cap > 0 }

// lookup serves a read: on hit the resident copy is returned (dirty or
// clean — the buffer always holds the newest version).
func (c *hostCache) lookup(page int) ([]byte, bool) {
	if !c.enabled() {
		return nil, false
	}
	e, ok := c.entries[page]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.recent.moveToFront(e.lru)
	return e.data, true
}

// put installs a page (a fill from a drive read, or a host write into
// the write-back buffer), evicting if the cache is full. ok reports a
// dirty eviction victim, returned as wb — the caller owns getting it to
// a drive. The cache takes ownership of data; an
// overwrite recycles the store it replaces.
func (c *hostCache) put(page int, data []byte, dirty bool) (wb writeback, ok bool) {
	if !c.enabled() {
		panic("array: put into disabled cache")
	}
	e, resident := c.entries[page]
	if !resident {
		if len(c.entries) >= c.cap {
			e, wb, ok = c.evict()
		} else {
			e = new(cacheEntry)
		}
		*e = cacheEntry{data: data, lru: c.recent.pushFront(page)}
		c.entries[page] = e
	} else {
		c.recycle(e.data)
		e.data = data
		c.recent.moveToFront(e.lru)
	}
	if dirty && e.fifo == nil {
		e.fifo = c.dirty.pushBack(page)
	}
	e.dirty = e.dirty || dirty
	if n := c.dirty.Len(); n > c.stats.DirtyHighWaterMark {
		c.stats.DirtyHighWaterMark = n
	}
	return wb, ok
}

// fill installs a clean copy of data read from a drive — unless the
// page is already resident, in which case the resident copy is newer (a
// write landed between the miss and the fill) and the stale fill is
// dropped.
func (c *hostCache) fill(page int, data []byte) (writeback, bool) {
	if _, ok := c.entries[page]; ok {
		return writeback{}, false
	}
	return c.put(page, append(c.take(), data...), false)
}

// evict removes the least recently used page, surfacing a writeback if
// it was dirty; a clean victim's store goes straight to the spare list.
// The victim's entry is returned for the caller to reuse.
func (c *hostCache) evict() (e *cacheEntry, wb writeback, ok bool) {
	victim := c.recent.back()
	page := victim.page
	c.recent.remove(victim)
	e = c.entries[page]
	delete(c.entries, page)
	c.stats.Evictions++
	if !e.dirty {
		c.recycle(e.data)
		return e, writeback{}, false
	}
	c.dirty.remove(e.fifo)
	c.stats.Writebacks++
	return e, writeback{page: page, data: e.data}, true
}

// highWater is the dirty count at which a round writes the whole
// write-back buffer back: three quarters of the capacity, at least one
// page (so a disabled cache, which never holds a dirty page, never
// flushes).
func (c *hostCache) highWater() int { return max(c.cap*3/4, 1) }

// flush appends every dirty page to wbs in first-dirtied order. The
// pages stay resident and become clean; the caller owns writing the
// appended copies to the drives.
func (c *hostCache) flush(wbs []writeback) []writeback {
	for c.dirty.Len() > 0 {
		front := c.dirty.front()
		page := front.page
		c.dirty.remove(front)
		e := c.entries[page]
		e.dirty = false
		e.fifo = nil
		c.stats.Writebacks++
		wbs = append(wbs, writeback{page: page, data: append(c.take(), e.data...)})
	}
	return wbs
}
