package store

import (
	"fmt"
	"sort"

	"sssdb/internal/proto"
	"sssdb/internal/wal"
)

// Storage defaults; see Options.
const (
	// DefaultPageBytes is the target encoded size of one heap page. A page
	// that grows past the target splits in two, so pages stay within about
	// 2x the target (plus one oversized row, if a single row exceeds it).
	DefaultPageBytes = 64 << 10
	// DefaultCacheBytes is the page-cache budget of a durable store.
	DefaultCacheBytes = 64 << 20
)

// shapeOf derives a table's page shape from its spec: share cells are
// fixed-width (an order-preserving one as wide as the spec declares), plain
// cells carry their length. Every page of the table is a block of exactly
// this shape, whatever lengths its plain cells happen to have, so a page
// never needs re-laying-out.
func shapeOf(spec *proto.TableSpec) *proto.Shape {
	widths := make([]int, len(spec.Columns))
	for i, c := range spec.Columns {
		switch c.Kind {
		case proto.KindOPP:
			widths[i] = int(c.Width)
		case proto.KindField:
			widths[i] = fieldCellSize
		default:
			widths[i] = proto.Variable
		}
	}
	return proto.NewShape(widths)
}

// page is the resident form of one heap page — the decoded share-row block
// itself (proto/rowblock.go): an id vector ascending by id plus one slab of
// the rows' bytes. It is mutated in place, only under the store's exclusive
// lock and only as pageCache.writable returns it (a copy, when an in-flight
// checkpoint captured the resident one); a reader holding the lock shared
// may alias its cells but must copy what it keeps before letting the lock
// go.
type page = proto.RowBlock

// rowAt returns row i of p as a proto.Row whose cells alias the page — for
// digests computed under the store lock — reusing cells' backing array.
func rowAt(p *page, i int, cells [][]byte) proto.Row {
	cells = cells[:0]
	for j := range p.Widths {
		cells = append(cells, p.Cell(i, j))
	}
	return proto.Row{ID: p.IDs[i], Cells: cells}
}

// writePage saves a page to path: its payload — the block's header plus a
// copy of ids and slab, len(payload) == p.EncodedSize() — encoded into buf
// and wrapped in the CRC + atomic-rename envelope of wal.SaveSnapshot. It
// returns the buffer for the next page, so a writer that saves many pages
// encodes them all into one.
func writePage(path string, p *page, buf []byte) ([]byte, error) {
	buf = p.AppendTo(buf[:0])
	return buf, wal.SaveSnapshot(path, buf)
}

// decodePage validates a page payload against the table's shape (any shape
// when nil) and returns the page aliasing it: one allocation for the page,
// one for its ids (one more for row offsets when a cell is variable),
// however many rows it holds — and none before the payload's row count and
// lengths have been checked against its size.
func decodePage(data []byte, shape *proto.Shape) (*page, error) {
	p := new(page)
	if err := p.Decode(data, shape); err != nil {
		return nil, fmt.Errorf("%w: page payload: %v", ErrBadRequest, err)
	}
	return p, nil
}

// pageMeta is the directory entry for one page, resident or not. Residency
// fields (res, elem, ckpt, dirty, epoch, version) are guarded by the store's
// page cache mutex; span fields (firstID..bytes) additionally change only
// under the store's exclusive lock.
type pageMeta struct {
	heap *rowHeap
	id   uint64

	// firstID/lastID are the exact bounds of the rows the page holds,
	// count the row count, bytes the exact encoded payload size — which,
	// the payload being ids plus slab, is also what a resident page holds
	// on the heap.
	firstID, lastID uint64
	count           int
	bytes           int

	// version increments on every mutation; the checkpointer uses it to
	// detect pages mutated while a checkpoint was writing them out.
	version uint64
	// epoch names the newest on-disk file holding this page (0 = none).
	// durableEpoch names the file the durable manifest references. They
	// diverge when a dirty page is evicted (runtime file newer than the
	// manifest) or a checkpoint races mutations.
	epoch        uint64
	durableEpoch uint64
	// dirty: resident content is newer than the epoch file. dirtyCkpt:
	// content (or the runtime file) is newer than the manifest.
	dirty     bool
	dirtyCkpt bool

	res  *page
	elem *lruElem
	// ckpt is the page object an in-flight checkpoint captured and is
	// writing out, unlocked, in its phase 2 (nil when none): it must not
	// change, so pageCache.writable copies it before a mutation.
	ckpt *page
}

// rowHeap is one table's paged row storage: a directory of pages partitioned
// by row-id span, ascending and disjoint. All methods require the caller to
// hold the store lock (shared for reads, exclusive for mutations); page
// residency is managed through the store's shared cache.
type rowHeap struct {
	s          *Store
	tableID    uint64
	shape      *proto.Shape
	nextPageID uint64
	pages      []*pageMeta
	count      int
}

// findPage returns the index of the last page whose firstID <= id, or -1.
func (h *rowHeap) findPage(id uint64) int {
	return sort.Search(len(h.pages), func(i int) bool { return h.pages[i].firstID > id }) - 1
}

// locate faults in the page whose span covers id and returns it with the
// row's position there (the insertion point when the row is absent). idx is
// -1, and p nil, when id lies beyond every page.
func (h *rowHeap) locate(id uint64) (idx int, p *page, i int, ok bool, err error) {
	if idx = h.findPage(id); idx < 0 || id > h.pages[idx].lastID {
		return -1, nil, 0, false, nil
	}
	if p, err = h.s.cache.acquire(h.pages[idx]); err != nil {
		return idx, nil, 0, false, err
	}
	i, ok = p.Find(id)
	return idx, p, i, ok, nil
}

// get returns the page holding the row and the row's position in it. The
// page's cells alias resident storage; see the ownership rule on page.
func (h *rowHeap) get(id uint64) (*page, int, bool, error) {
	_, p, i, ok, err := h.locate(id)
	return p, i, ok, err
}

// put copies a row into the page covering its id span — over the row with
// its id, after showing that row as it was to old (the index entries to drop
// are built from it), or as a new row, extending an edge page when the id
// falls outside every span — and splits the page if it outgrew the target
// size.
func (h *rowHeap) put(row proto.Row, old func(p *page, i int)) error {
	if len(h.pages) == 0 {
		pm := &pageMeta{heap: h, id: h.nextPageID, res: proto.NewRowBlock(h.shape)}
		h.nextPageID++
		h.pages = append(h.pages, pm)
		if err := h.s.cache.admit(pm); err != nil {
			return err
		}
	}
	idx := max(h.findPage(row.ID), 0)
	pm := h.pages[idx]
	p, err := h.s.cache.acquire(pm)
	if err != nil {
		return err
	}
	p = h.s.cache.writable(pm)
	if i, ok := p.Find(row.ID); ok {
		old(p, i)
		err = p.Replace(i, row.Cells)
	} else if err = p.Insert(i, row.ID, row.Cells); err == nil {
		h.count++
	}
	if err != nil {
		if p.Len() == 0 { // the page was made for this row
			h.dropPageAt(idx)
		}
		return fmt.Errorf("%w: row %d: %v", ErrBadRequest, row.ID, err)
	}
	if err := h.s.cache.mutated(pm); err != nil {
		return err
	}
	return h.maybeSplit(idx)
}

// delete removes a row if present, after showing it to old, and drops the
// page when it empties.
func (h *rowHeap) delete(id uint64, old func(p *page, i int)) error {
	idx, p, i, ok, err := h.locate(id)
	if err != nil || !ok {
		return err
	}
	old(p, i)
	p = h.s.cache.writable(h.pages[idx])
	p.Delete(i)
	h.count--
	if p.Len() == 0 {
		h.dropPageAt(idx)
		return nil
	}
	return h.s.cache.mutated(h.pages[idx])
}

// maybeSplit splits the page at idx when its encoded size exceeds the
// store's page target, at the row boundary nearest half its slab. The left
// half keeps the page id (and its on-disk history); the right half is a
// fresh page, dirty from birth. Splitting is a runtime-only reshaping:
// recovery rebuilds the directory from the manifest and replays the WAL, so
// it never observes the split itself.
func (h *rowHeap) maybeSplit(idx int) error {
	pm := h.pages[idx]
	if pm.bytes <= h.s.opts.PageBytes || pm.count < 2 {
		return nil
	}
	p := h.s.cache.writable(pm)
	p2 := &pageMeta{heap: h, id: h.nextPageID, res: p.Split(p.Mid())}
	h.nextPageID++
	h.pages = append(h.pages, nil)
	copy(h.pages[idx+2:], h.pages[idx+1:])
	h.pages[idx+1] = p2
	if err := h.s.cache.mutated(pm); err != nil {
		return err
	}
	return h.s.cache.admit(p2)
}

// dropPageAt removes the page from the directory and schedules its files
// for deletion after the next checkpoint (an in-flight checkpoint may be
// promoting the runtime file into the manifest right now, so nothing is
// unlinked eagerly).
func (h *rowHeap) dropPageAt(idx int) {
	pm := h.pages[idx]
	h.pages = append(h.pages[:idx], h.pages[idx+1:]...)
	h.s.cache.forget(pm)
}

// drop releases every page of the heap (table drop).
func (h *rowHeap) drop() {
	for _, pm := range h.pages {
		h.s.cache.forget(pm)
	}
	h.pages = nil
	h.count = 0
}

// ascendPages iterates resident pages in id order, loading each on demand.
// With hasAfter, iteration starts at the first row with id > afterID. The
// callback gets a page and the position of the first row to look at; the
// page is only valid until the store lock is released. Return false to stop.
func (h *rowHeap) ascendPages(afterID uint64, hasAfter bool, fn func(p *page, from int) (bool, error)) error {
	idx := 0
	if hasAfter {
		idx = h.findPage(afterID)
		if idx < 0 {
			idx = 0
		} else if h.pages[idx].lastID <= afterID {
			idx++
		}
	}
	for ; idx < len(h.pages); idx++ {
		p, err := h.s.cache.acquire(h.pages[idx])
		if err != nil {
			return err
		}
		from := 0
		if hasAfter && p.Len() > 0 && p.IDs[0] <= afterID { // only the page afterID falls in
			from = sort.Search(p.Len(), func(i int) bool { return p.IDs[i] > afterID })
		}
		if from == p.Len() {
			continue
		}
		if cont, err := fn(p, from); err != nil || !cont {
			return err
		}
	}
	return nil
}
