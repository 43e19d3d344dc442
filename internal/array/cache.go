package array

import "fmt"

// Policy is a pluggable eviction policy for the host cache: it tracks
// residency order, nothing else. The cache calls Admit when a page
// becomes resident, Touch on every reference to a resident page and
// Victim when it must evict (the policy removes and returns its
// choice); a resident page leaves the cache only as a victim. Policies are
// strictly deterministic: the same call sequence always yields the same
// victims, which is what keeps fleet reports byte-identical per seed.
type Policy interface {
	Name() string
	Admit(page int)
	Touch(page int)
	Victim() int
	Len() int
}

// NewPolicy builds a named eviction policy: "lru" (default for the
// empty string) or "clock".
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "", "lru":
		return NewLRU(), nil
	case "clock":
		return NewClock(), nil
	default:
		return nil, fmt.Errorf("array: unknown eviction policy %q", name)
	}
}

// LRU evicts the least-recently-used page: a doubly linked list in
// recency order with a map from page to list node.
type LRU struct {
	order pageList // front = most recent
	elem  map[int]*pageNode
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU {
	return &LRU{elem: make(map[int]*pageNode)}
}

// Name implements Policy.
func (l *LRU) Name() string { return "lru" }

// Admit implements Policy.
func (l *LRU) Admit(page int) { l.elem[page] = l.order.pushFront(page) }

// Touch implements Policy.
func (l *LRU) Touch(page int) {
	if nd, ok := l.elem[page]; ok {
		l.order.moveToFront(nd)
	}
}

// Victim implements Policy.
func (l *LRU) Victim() int {
	nd := l.order.back()
	if nd == nil {
		panic("array: LRU victim of empty cache")
	}
	page := nd.page
	l.order.remove(nd)
	delete(l.elem, page)
	return page
}

// Len implements Policy.
func (l *LRU) Len() int { return l.order.Len() }

// Clock is the classic second-chance approximation of LRU: resident
// pages sit on a circular list with one reference bit each; the hand
// sweeps, clearing set bits, and evicts the first page it finds clear.
// O(1) per touch, no reordering on hit — the policy hardware caches use.
type Clock struct {
	ring pageList  // circular order (hand wraps via front)
	hand *pageNode // next candidate; nil when empty
	elem map[int]*pageNode
}

// NewClock returns an empty clock policy.
func NewClock() *Clock {
	return &Clock{elem: make(map[int]*pageNode)}
}

// Name implements Policy.
func (c *Clock) Name() string { return "clock" }

// Admit implements Policy. New pages enter behind the hand with their
// reference bit set, so they survive the hand's current lap.
func (c *Clock) Admit(page int) {
	var nd *pageNode
	if c.hand == nil {
		nd = c.ring.pushBack(page)
		c.hand = nd
	} else {
		nd = c.ring.insertBefore(page, c.hand)
	}
	nd.ref = true
	c.elem[page] = nd
}

// Touch implements Policy.
func (c *Clock) Touch(page int) {
	if nd, ok := c.elem[page]; ok {
		nd.ref = true
	}
}

// advance moves the hand one slot, wrapping at the ring's end.
func (c *Clock) advance() {
	c.hand = c.ring.next(c.hand)
	if c.hand == nil {
		c.hand = c.ring.front()
	}
}

// Victim implements Policy.
func (c *Clock) Victim() int {
	if c.hand == nil {
		panic("array: clock victim of empty cache")
	}
	for {
		if c.hand.ref {
			c.hand.ref = false
			c.advance()
			continue
		}
		victim := c.hand
		c.advance()
		if victim == c.hand { // last element
			c.hand = nil
		}
		page := victim.page
		c.ring.remove(victim)
		delete(c.elem, page)
		return page
	}
}

// Len implements Policy.
func (c *Clock) Len() int { return c.ring.Len() }

// CacheConfig parametrises the host-side cache.
type CacheConfig struct {
	// Pages is the cache capacity in volume pages (0 disables caching:
	// every read misses to a drive and every write dispatches
	// immediately).
	Pages int
	// Policy names the eviction policy: "lru" (the default) or "clock".
	Policy string
	// DirtyHighWater triggers a background flush once this many dirty
	// pages accumulate in the write-back buffer; the flush drains down
	// to DirtyLowWater. Defaults: 3/4 and 1/4 of Pages.
	DirtyHighWater int
	DirtyLowWater  int
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
	pol     Policy
	entries map[int]*cacheEntry
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
	pol, err := NewPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	c := &hostCache{
		cap:     cfg.Pages,
		pol:     pol,
		entries: make(map[int]*cacheEntry),
	}
	c.stats.PolicyName = pol.Name()
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
	c.pol.Touch(page)
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
		*e = cacheEntry{data: data}
		c.entries[page] = e
		c.pol.Admit(page)
	} else {
		c.recycle(e.data)
		e.data = data
		c.pol.Touch(page)
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

// evict removes the policy's victim, surfacing a writeback if it was
// dirty; a clean victim's store goes straight to the spare list. The
// victim's entry is returned for the caller to reuse.
func (c *hostCache) evict() (e *cacheEntry, wb writeback, ok bool) {
	page := c.pol.Victim()
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

// flush appends up to max dirty pages (all of them when max <= 0) to wbs
// in first-dirtied order. The pages stay resident and become clean; the
// caller owns writing the appended copies to the drives.
func (c *hostCache) flush(wbs []writeback, max int) []writeback {
	if max <= 0 || max > c.dirty.Len() {
		max = c.dirty.Len()
	}
	for i := 0; i < max; i++ {
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

// dirtyCount returns the write-back buffer's current depth.
func (c *hostCache) dirtyCount() int { return c.dirty.Len() }
