package store

import (
	"bytes"
	"fmt"
	"slices"

	"sssdb/internal/btree"
	"sssdb/internal/proto"
)

// ScanCursor iterates a scan in bounded batches instead of materializing
// the whole result set under the store lock. The cursor holds the store
// lock only while assembling one batch: between batches, concurrent
// mutations proceed freely — including checkpoints and page eviction, which
// the cursor tolerates because it holds no page reference across batches.
// Index-order cursors re-seek the B+-tree after the last emitted (cell, row
// id) entry, so rows inserted behind the cursor are skipped and rows
// inserted ahead are observed — exactly the semantics of the client's
// stable-watermark filtering, which hides in-flight inserts by row id.
// Heap-order cursors resume at the page directory after the last scanned
// row id, faulting each page in on demand, so a full scan of a
// bigger-than-cache table never holds more than the cache budget resident.
//
// Returned batches own their bytes: a page's slab is overwritten in place by
// UPDATE and shifted by INSERT and DELETE, so each batch copies the cells it
// projects into one arena of its own while the read lock is still held (see
// rowBatch), and nothing a caller holds ever aliases page storage. A
// verified read is a proved cursor (see Prove).
type ScanCursor struct {
	s    *Store
	name string
	cols []string
	// colIdx maps each output column to its cell index in stored rows.
	colIdx []int

	// filter is the scan's filter (nil = none); filterCol is the cell index
	// it compares (-1 = none) and lo and hi its inclusive bounds. An indexed
	// filter walks the column's B+-tree with it; any other walks the heap and
	// compares inline.
	filter    *proto.Filter
	filterCol int
	indexed   bool
	lo, hi    []byte
	it        btree.Iter
	// The walk resumes after the last row visited: in heap order after row
	// afterID, in index order after the entry (lo, afterID), lo having
	// moved up to that row's cell. started is false before the first row.
	afterID uint64
	started bool
	// tab and version are the table and its version the scan began at, which
	// a proving cursor's last batch proves.
	tab     *table
	version uint64
	proving bool

	// remaining counts rows the limit still allows (^0 = unlimited).
	remaining  uint64
	batchBytes int
	done       bool
	// batch is the builder every batch is assembled in; its scratch space is
	// reused from one batch to the next.
	batch rowBatch
}

// rowBatch assembles the rows of one response out of page slabs: ids and
// projected cell bytes are appended to scratch buffers while the store lock
// is held, and rows() then cuts them into proto.Rows backed by exactly three
// allocations — the Row headers, one cell index and one arena — however many
// rows there are. The scratch buffers start out inside the struct, so a
// one-row read never grows them.
type rowBatch struct {
	widths []int    // per output cell: its fixed width, or proto.Variable
	ids    []uint64 // one per row
	buf    []byte   // every row's cells back to back
	lens   []int    // lengths of the Variable cells, in order

	idsArr [4]uint64
	bufArr [128]byte
	wArr   [8]int
}

// reset empties the batch and sets its output cells to cols of shape.
func (rb *rowBatch) reset(shape *proto.Shape, cols []int) {
	rb.widths, rb.ids, rb.buf, rb.lens = rb.wArr[:0], rb.idsArr[:0], rb.bufArr[:0], rb.lens[:0]
	rb.extend(shape, cols)
}

// extend adds cols of shape to the output cells (a join's second side).
func (rb *rowBatch) extend(shape *proto.Shape, cols []int) {
	for _, ci := range cols {
		rb.widths = append(rb.widths, shape.Widths[ci])
	}
}

// clear empties the batch for the next one of the same output cells.
func (rb *rowBatch) clear() {
	rb.ids, rb.buf, rb.lens = rb.ids[:0], rb.buf[:0], rb.lens[:0]
}

// add starts a row with the id of row i of p and copies cols of it.
func (rb *rowBatch) add(p *page, i int, cols []int) {
	rb.ids = append(rb.ids, p.IDs[i])
	rb.addCells(p, i, cols)
}

// addCells copies cols of row i of p onto the row last started.
func (rb *rowBatch) addCells(p *page, i int, cols []int) {
	for _, ci := range cols {
		cell := p.Cell(i, ci)
		if rb.buf = append(rb.buf, cell...); p.Widths[ci] < 0 {
			rb.lens = append(rb.lens, len(cell))
		}
	}
}

// size bounds what the batch will weigh in a block from above: its cell
// bytes, and its ids at their widest.
func (rb *rowBatch) size() int { return 8*len(rb.ids) + len(rb.buf) }

// rows cuts the batch into rows that own their bytes (nil when empty).
func (rb *rowBatch) rows() []proto.Row {
	if len(rb.ids) == 0 {
		return nil
	}
	rows := make([]proto.Row, len(rb.ids))
	nc := len(rb.widths)
	index := make([][]byte, len(rows)*nc)
	arena := slices.Clone(rb.buf)
	lens := rb.lens
	for i := range rows {
		rows[i].ID = rb.ids[i]
		if nc == 0 {
			continue
		}
		rows[i].Cells, index = index[:nc:nc], index[nc:]
		for k, w := range rb.widths {
			if w < 0 {
				w, lens = lens[0], lens[1:]
			}
			rows[i].Cells[k], arena = arena[:w:w], arena[w:]
		}
	}
	return rows
}

const unlimitedRows = ^uint64(0)

// OpenCursor validates the scan and returns a cursor over its result.
// Filters on an indexed column iterate the index incrementally; everything
// else walks the row heap page by page, applying the filter inline. A
// non-zero limit caps the total rows emitted (and stops provider-side
// walking early); batchBytes bounds one batch's row payload (0 means
// proto.BatchBytes). A verified read is a cursor too: call Prove before the
// first Next.
func (s *Store) OpenCursor(name string, f *proto.Filter, projection []string, limit uint64, batchBytes int) (*ScanCursor, error) {
	if batchBytes <= 0 {
		batchBytes = proto.BatchBytes
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.table(name)
	if err != nil {
		return nil, err
	}
	cur, err := t.openCursor(f, projection, limit)
	if err != nil {
		return nil, err
	}
	cur.s, cur.batchBytes = s, batchBytes
	return cur, nil
}

// openCursor validates a read of t — projection, filter, limit (0 = none) —
// and positions a cursor at its start. Every read of the store is a walk of
// such a cursor: Next's batches, Scan, the aggregates and the join's left
// side. The caller holds the store lock.
func (t *table) openCursor(f *proto.Filter, projection []string, limit uint64) (*ScanCursor, error) {
	cols, colIdx, err := t.resolveProjection(projection)
	if err != nil {
		return nil, err
	}
	cur := &ScanCursor{name: t.spec.Name, cols: cols, colIdx: colIdx, filterCol: -1, remaining: unlimitedRows}
	cur.batch.reset(t.heap.shape, colIdx)
	if limit > 0 {
		cur.remaining = limit
	}
	if f == nil {
		return cur, nil
	}
	ci, lo, hi, err := t.filterBounds(f)
	if err != nil {
		return nil, err
	}
	// One allocation holds both bounds; an index walk overwrites lo in place.
	bounds := append(append(make([]byte, 0, len(lo)+len(hi)), lo...), hi...)
	cur.filter, cur.filterCol, cur.lo, cur.hi = f, ci, bounds[:len(lo):len(lo)], bounds[len(lo):]
	cur.indexed = t.spec.Columns[ci].Indexed
	return cur, nil
}

// Prove asks the batch that ends the scan to carry its completeness proof.
// The proof is cut under the same hold of the store lock as that batch's
// rows, from the table version the scan began at; if a write has landed
// since, the scan fails with ErrConcurrentWrite rather than prove rows of two
// table states. A scan that cannot be proved — without a filter, with a
// limit, or over an unindexed column — is refused with ErrBadRequest. Call
// Prove before the first Next.
func (cur *ScanCursor) Prove() error {
	switch {
	case cur.filter == nil:
		return fmt.Errorf("%w: proof requires a filter", ErrBadRequest)
	case cur.remaining != unlimitedRows:
		return fmt.Errorf("%w: proof incompatible with limit", ErrBadRequest)
	case !cur.indexed:
		return fmt.Errorf("%w: column %q is not indexed", ErrBadRequest, cur.filter.Col)
	}
	cur.proving = true
	return nil
}

// Columns returns the projected column names, for callers that must frame
// an empty result.
func (cur *ScanCursor) Columns() []string { return cur.cols }

// Next assembles the next batch under a short-lived read lock. It returns
// (nil, nil) when the scan is exhausted. Batches are never empty, but for
// the last of a proved scan, which may carry only the proof.
func (cur *ScanCursor) Next() (*proto.RowsResponse, error) {
	if cur.done {
		return nil, nil
	}
	cur.s.mu.RLock()
	defer cur.s.mu.RUnlock()
	cur.batch.clear()
	t, err := cur.s.table(cur.name)
	if err == nil {
		if !cur.started { // no row is out yet: the scan begins at this state
			cur.tab, cur.version = t, t.version
		}
		err = cur.walk(t, func(p *page, i int) bool {
			cur.batch.add(p, i, cur.colIdx)
			return cur.batch.size() < cur.batchBytes
		})
	}
	// A walk that stopped short of a full batch ran out of rows.
	cur.done = err != nil || cur.batch.size() < cur.batchBytes || cur.remaining == 0
	var proof []byte
	if err == nil && cur.done && cur.proving {
		if t != cur.tab || t.version != cur.version {
			err = fmt.Errorf("%w: table %q went from version %d to %d between the scan's batches",
				ErrConcurrentWrite, cur.name, cur.version, t.version)
		} else {
			proof, err = t.proveScan(cur.filter)
		}
	}
	if err != nil {
		return nil, err
	}
	rows := cur.batch.rows()
	if rows == nil && proof == nil {
		return nil, nil
	}
	return &proto.RowsResponse{Columns: cur.cols, Rows: rows, Proof: proof}, nil
}

// walk visits the matching rows from the cursor's position on, until visit
// returns false or the limit is spent, and leaves the cursor after the last
// row visited. An indexed filter walks the B+-tree from (lo, 0), or after
// the last entry visited, while cells are at most hi; anything else walks
// the page directory from the row id after the last one seen, faulting
// pages in through the cache and applying the filter inline, so eviction
// between walks just means a page faults back.
// A visited row aliases page storage: it is valid while the caller holds
// the store lock, and what outlives the lock must be copied out.
func (cur *ScanCursor) walk(t *table, visit func(p *page, i int) bool) error {
	// took counts a visited row against the limit.
	took := func(more bool) bool {
		if cur.remaining != unlimitedRows {
			cur.remaining--
		}
		return more && cur.remaining > 0
	}
	if !cur.indexed {
		return t.heap.ascendPages(cur.afterID, cur.started, func(p *page, from int) (bool, error) {
			for i := from; i < p.Len(); i++ {
				cur.afterID, cur.started = p.IDs[i], true
				if cur.filterCol >= 0 {
					cell := p.Cell(i, cur.filterCol)
					if bytes.Compare(cell, cur.lo) < 0 || bytes.Compare(cell, cur.hi) > 0 {
						continue
					}
				}
				if !took(visit(p, i)) {
					return false, nil
				}
			}
			return true, nil
		})
	}
	idxs, err := t.ensureIndexes()
	if err != nil {
		return err
	}
	var idx *btree.Tree
	if cur.filterCol < len(idxs) {
		idx = idxs[cur.filterCol]
	}
	if idx == nil || idx.Width() != len(cur.hi) { // the table was dropped and made again
		return fmt.Errorf("%w: table %q lost the index the scan walks", ErrBadRequest, cur.name)
	}
	if cur.started {
		idx.SeekAfter(&cur.it, cur.lo, cur.afterID)
	} else {
		idx.Seek(&cur.it, cur.lo, 0)
	}
	for cur.it.Next() && bytes.Compare(cur.it.Key(), cur.hi) <= 0 {
		id := cur.it.ID()
		p, i, ok, err := t.heap.get(id)
		if err != nil {
			return err
		}
		cur.lo, cur.afterID, cur.started = append(cur.lo[:0], cur.it.Key()...), id, true
		// An index entry without its row raced a concurrent delete: skip it.
		if ok && !took(visit(p, i)) {
			break
		}
	}
	return nil
}
