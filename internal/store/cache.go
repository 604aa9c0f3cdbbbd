package store

import (
	"fmt"
	"os"
	"sync"

	"sssdb/internal/wal"
)

// lruElem is a node in the cache's intrusive recency list.
type lruElem struct {
	pm         *pageMeta
	prev, next *lruElem
}

// pageCache is a store-wide LRU over resident pages with a byte budget.
// Hot pages stay pinned in memory; when the budget is exceeded the coldest
// pages are dropped, writing dirty ones back to a fresh epoch file first.
// Memory-only stores (no directory) run with an unbounded budget — there is
// no backing file to reload an evicted page from.
//
// The cache has its own mutex, always acquired after the store lock (in
// either mode): readers holding the store lock shared fault pages in and
// may evict, mutations holding it exclusively dirty pages. Page loads and
// dirty writebacks run under the cache mutex, which serializes concurrent
// faults — a deliberate simplification; hot pages are served without I/O.
type pageCache struct {
	s      *Store
	budget int64 // <= 0 means unbounded

	// Fields below are guarded by mu (pageMeta residency fields too).
	mu         sync.Mutex
	used       int64
	head, tail *lruElem // head = hottest
	hits       uint64
	misses     uint64
	evictions  uint64
	writebacks uint64
	// pendingRemove holds page files that may still be referenced by the
	// durable manifest or an in-flight checkpoint; they are unlinked only
	// after the next successful manifest swap.
	pendingRemove []string
	// wbuf is the encoding buffer of eviction write-backs, reused across
	// them.
	wbuf []byte
}

func newPageCache(s *Store, budget int64) *pageCache {
	return &pageCache{s: s, budget: budget}
}

func (c *pageCache) push(pm *pageMeta) { c.link(&lruElem{pm: pm}) }

// link makes e the hottest element.
func (c *pageCache) link(e *lruElem) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
	e.pm.elem = e
}

func (c *pageCache) unlink(e *lruElem) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.pm.elem = nil
}

func (c *pageCache) touch(e *lruElem) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.link(e)
}

// acquire returns the resident form of pm, faulting it in from its newest
// epoch file if needed and evicting cold pages to stay within budget.
func (c *pageCache) acquire(pm *pageMeta) (*page, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pm.res != nil {
		c.hits++
		if pm.elem != nil {
			c.touch(pm.elem)
		}
		return pm.res, nil
	}
	c.misses++
	if pm.epoch == 0 {
		return nil, fmt.Errorf("store: page %d of table %d has no backing file", pm.id, pm.heap.tableID)
	}
	payload, err := wal.LoadSnapshot(c.s.pageFilePath(pm.heap.tableID, pm.id, pm.epoch))
	if err != nil {
		return nil, fmt.Errorf("store: loading page %d of table %d: %w", pm.id, pm.heap.tableID, err)
	}
	if payload == nil {
		return nil, fmt.Errorf("store: page file for page %d of table %d is missing", pm.id, pm.heap.tableID)
	}
	p, err := decodePage(payload, pm.heap.shape)
	if err == nil && (p.Len() != pm.count || len(payload) != pm.bytes) {
		err = fmt.Errorf("%w: %d rows in %d bytes, directory says %d in %d", ErrBadRequest, p.Len(), len(payload), pm.count, pm.bytes)
	}
	if err != nil {
		return nil, fmt.Errorf("store: decoding page %d of table %d: %w", pm.id, pm.heap.tableID, err)
	}
	pm.res = p
	c.used += int64(pm.bytes)
	c.push(pm)
	if err := c.evictOverBudget(pm); err != nil {
		return nil, err
	}
	return pm.res, nil
}

// writable returns pm's resident page ready to be mutated in place. When
// it is the very page object an in-flight checkpoint captured, it is copied
// first and the copy becomes resident, so the checkpoint goes on writing the
// state it captured. Such a copy lives beside the captured page until the
// checkpoint's phase 3 lets the latter go, outside the cache budget; only
// pages mutated while phase 2 writes pages out are ever copied. The caller
// holds the store lock exclusively, with pm just acquired.
func (c *pageCache) writable(pm *pageMeta) *page {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pm.res == pm.ckpt {
		pm.res = pm.res.Clone()
	}
	return pm.res
}

// admit registers a freshly created resident page (first insert or split)
// and accounts for it as mutated does.
func (c *pageCache) admit(pm *pageMeta) error {
	c.mu.Lock()
	c.push(pm)
	c.mu.Unlock()
	return c.mutated(pm)
}

// mutated records an in-place mutation of a resident page: the directory
// entry's span, row count and exact encoded size are re-read from the page
// — the one place they are derived — then dirty marking, recency bump and
// budget enforcement.
func (c *pageCache) mutated(pm *pageMeta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	pm.version++
	pm.dirty = true
	pm.dirtyCkpt = true
	p := pm.res
	if pm.count = p.Len(); pm.count > 0 {
		pm.firstID, pm.lastID = p.IDs[0], p.IDs[pm.count-1]
	}
	c.used -= int64(pm.bytes)
	pm.bytes = p.EncodedSize()
	c.used += int64(pm.bytes)
	if pm.elem != nil {
		c.touch(pm.elem)
	}
	return c.evictOverBudget(pm)
}

// forget removes a dropped page from the cache and defers its file
// deletions past the next manifest swap.
func (c *pageCache) forget(pm *pageMeta) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pm.elem != nil {
		c.unlink(pm.elem)
		c.used -= int64(pm.bytes)
	}
	pm.res = nil
	if pm.epoch != 0 && pm.epoch != pm.durableEpoch {
		c.pendingRemove = append(c.pendingRemove, c.s.pageFilePath(pm.heap.tableID, pm.id, pm.epoch))
	}
	if pm.durableEpoch != 0 {
		c.pendingRemove = append(c.pendingRemove, c.s.pageFilePath(pm.heap.tableID, pm.id, pm.durableEpoch))
	}
}

// takePending hands the current deferred-deletion set to a checkpoint.
func (c *pageCache) takePending() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.pendingRemove
	c.pendingRemove = nil
	return p
}

// returnPending re-queues paths after a failed checkpoint.
func (c *pageCache) returnPending(paths []string) {
	c.mu.Lock()
	c.pendingRemove = append(c.pendingRemove, paths...)
	c.mu.Unlock()
}

// evictOverBudget drops the coldest pages (never protect, never the last
// resident page) until the budget is met. Dirty pages are written to a
// fresh epoch file first; the byte cost released is exact because page
// sizes are tracked as exact encoded sizes.
func (c *pageCache) evictOverBudget(protect *pageMeta) error {
	if c.budget <= 0 {
		return nil
	}
	for c.used > c.budget {
		e := c.tail
		if e != nil && e.pm == protect {
			e = e.prev
		}
		if e == nil {
			return nil // only the protected page is resident
		}
		if err := c.evictOne(e.pm); err != nil {
			return err
		}
	}
	return nil
}

func (c *pageCache) evictOne(pm *pageMeta) error {
	if pm.dirty {
		epoch := c.s.nextEpoch()
		path := c.s.pageFilePath(pm.heap.tableID, pm.id, epoch)
		var err error
		if c.wbuf, err = writePage(path, pm.res, c.wbuf); err != nil {
			return fmt.Errorf("store: writing back page %d of table %d: %w", pm.id, pm.heap.tableID, err)
		}
		// The previous runtime file may be mid-promotion by a checkpoint,
		// so defer its deletion instead of unlinking now.
		if pm.epoch != 0 && pm.epoch != pm.durableEpoch {
			c.pendingRemove = append(c.pendingRemove, c.s.pageFilePath(pm.heap.tableID, pm.id, pm.epoch))
		}
		pm.epoch = epoch
		pm.dirty = false
		c.writebacks++
	}
	c.unlink(pm.elem)
	pm.res = nil
	c.used -= int64(pm.bytes)
	c.evictions++
	return nil
}

// removeFile unlinks a page file, ignoring already-missing files.
func removeFile(path string) {
	if path == "" {
		return
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		// Deletion is advisory cleanup; orphans are collected at next Open.
		_ = err
	}
}
