package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"sssdb/internal/btree"
	"sssdb/internal/opp"
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
	// tab is the table the cursor was opened on: a table of its name found
	// by a later batch is another one, dropped and made again in between.
	// version is its version as the scan began, which a proving cursor's
	// last batch proves.
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
	// join, set on a join's cursor (see OpenJoin), pairs each row the walk
	// visits with the right table's rows.
	join *joinProbe
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

// extend adds cols of shape to the output cells.
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

// reserve makes room for rows more rows of cells more bytes, at least
// doubling what it grows (append grows a large buffer by a quarter).
func (rb *rowBatch) reserve(rows, cells int) {
	if len(rb.ids)+rows > cap(rb.ids) {
		rb.ids = slices.Grow(rb.ids, max(rows, cap(rb.ids)))
	}
	if len(rb.buf)+cells > cap(rb.buf) {
		rb.buf = slices.Grow(rb.buf, max(cells, cap(rb.buf)))
	}
}

// addID appends id to the row last started as one 8-byte big-endian cell.
func (rb *rowBatch) addID(id uint64) { rb.buf = binary.BigEndian.AppendUint64(rb.buf, id) }

// size bounds what the batch will weigh in a block from above: its cell
// bytes, and its ids at their widest.
func (rb *rowBatch) size() int { return 8*len(rb.ids) + len(rb.buf) }

// rows cuts the batch into rows (nil when empty). A batch that is not the
// cursor's last is cut from a copy of the cell buffer, which the next batch
// reuses. The last batch's rows share the buffer itself when it is the
// scratch space inside the cursor (at most len(bufArr) bytes; the rows then
// keep the cursor reachable) or when at most a fifth of it is spare;
// otherwise they take a copy, so a small last batch does not pin a buffer
// that a larger earlier batch grew.
func (rb *rowBatch) rows(last bool) []proto.Row {
	if len(rb.ids) == 0 {
		return nil
	}
	rows := make([]proto.Row, len(rb.ids))
	nc := len(rb.widths)
	index := make([][]byte, len(rows)*nc)
	arena := rb.buf
	inStruct := cap(arena) == len(rb.bufArr) && &arena[:1][0] == &rb.bufArr[0]
	if last && (inStruct || 5*(cap(arena)-len(arena)) <= cap(arena)) {
		rb.buf = nil
	} else {
		arena = slices.Clone(arena)
	}
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
// such a cursor: Next's batches, Scan, the aggregates and a join, whose
// cursor walks its left side. The caller holds the store lock.
func (t *table) openCursor(f *proto.Filter, projection []string, limit uint64) (*ScanCursor, error) {
	cols, colIdx, err := t.resolveProjection(projection)
	if err != nil {
		return nil, err
	}
	cur := &ScanCursor{name: t.spec.Name, tab: t, cols: cols, colIdx: colIdx, filterCol: -1, remaining: cmp.Or(limit, unlimitedRows)}
	cur.batch.reset(t.heap.shape, colIdx)
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

// OpenJoin returns a cursor over the pairs of an equijoin of two tables on
// byte-equality of the named columns: shares of one domain are
// deterministic, so this is the client-level referential join of Sec. V-A.
// The cursor walks the left side as OpenCursor's would, and looks each left
// row's key cell up in the right table's index. A pair is one row: the left
// row's id and cells, the right row's id as one 8-byte cell (column
// proto.JoinRightID), the right row's cells. A batch ends after the left row
// whose pairs fill it; Limit (0 = none) caps the pairs.
func (s *Store) OpenJoin(req *proto.JoinRequest, batchBytes int) (*ScanCursor, error) {
	cur, err := s.OpenCursor(req.LeftTable, req.Filter, Projection(req.LeftProj, req.LeftIDsOnly), 0, batchBytes)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	lt := cur.tab
	rt, err := s.table(req.RightTable)
	if err != nil {
		return nil, err
	}
	lci, err := lt.usableCol(req.LeftCol, "join on", false)
	if err != nil {
		return nil, err
	}
	rci, err := rt.usableCol(req.RightCol, "join on", false)
	if err != nil {
		return nil, err
	}
	if lw, rw := lt.heap.shape.Widths[lci], rt.heap.shape.Widths[rci]; lw != rw {
		return nil, fmt.Errorf("%w: join of %q with %q: cell widths %d and %d (%d = variable) are not one domain's",
			ErrBadRequest, req.LeftCol, req.RightCol, lw, rw, proto.Variable)
	}
	if !rt.spec.Columns[rci].Indexed {
		return nil, fmt.Errorf("%w: join of %q with %q: the right column has no index to seek", ErrBadRequest, req.LeftCol, req.RightCol)
	}
	rNames, rIdx, err := rt.resolveProjection(Projection(req.RightProj, req.RightIDsOnly))
	if err != nil {
		return nil, err
	}
	cur.cols = append(append(slices.Clip(cur.cols), proto.JoinRightID), rNames...)
	cur.batch.widths = append(cur.batch.widths, 8)
	cur.batch.extend(rt.heap.shape, rIdx)
	cur.join = &joinProbe{rt: rt, lci: lci, rci: rci, colIdx: rIdx, remaining: cmp.Or(req.Limit, unlimitedRows),
		memo: make(map[opp.Share][2]int, 64), ids: make([]uint64, 0, 64)}
	for _, w := range cur.batch.widths {
		cur.join.width += max(w, 0)
	}
	return cur, nil
}

// joinProbe is a join cursor's right side: the right table as the join found
// it, the key cells lci and rci, the right projection, a pair's fixed-width
// bytes, and the pairs the limit still allows (^0 = unlimited).
type joinProbe struct {
	rt              *table
	lci, rci, width int
	colIdx          []int
	remaining       uint64
	// memo maps each key seeked during one batch — one hold of the store
	// lock: the right table may change between batches — to its right row
	// ids, ids[from:to], so a key repeated on the left seeks the index once
	// a batch. An indexed cell is an order-preserving share: the memo holds
	// each key zero-padded to a whole one.
	memo map[opp.Share][2]int
	ids  []uint64
	// it stands where the batch's last index lookup left it: last is the
	// key looked up (page bytes, still under the batch's lock; nil before
	// the first), and more that it stands on the first entry above last
	// rather than past the end.
	it   btree.Iter
	last []byte
	more bool
	hit  bool  // the last key was in the memo
	err  error // a right row that failed to fault in
}

// pairs returns, for one batch, the visitor that adds a left row's pairs to
// cur's batch; a right table dropped and made again since the join began
// fails the join, as Next fails a left one. The caller holds the store lock.
func (j *joinProbe) pairs(cur *ScanCursor) (func(*page, int) bool, error) {
	rt, err := cur.s.table(j.rt.spec.Name)
	if err == nil && rt != j.rt {
		err = fmt.Errorf("%w: table %q was dropped and made again during the join", ErrBadRequest, rt.spec.Name)
	}
	if err != nil {
		return nil, err
	}
	idx, err := rt.index(j.rci)
	if err != nil {
		return nil, err
	}
	clear(j.memo)
	j.ids, j.last, j.hit = j.ids[:0], nil, false
	// Keys often come in ascending order: one above the last key looked up
	// and at most the entry after its run has that entry for its first, or
	// none, and needs neither a seek nor the memo.
	follows := func(key []byte) bool {
		return j.last != nil && bytes.Compare(j.last, key) < 0 && (!j.more || bytes.Compare(key, j.it.Key()) <= 0)
	}
	return func(lp *page, li int) bool {
		key := lp.Cell(li, j.lci)
		// After a memo hit the memo is asked first, else whether key follows.
		var mk opp.Share
		var span [2]int
		hit, forward := false, !j.hit && follows(key)
		if !forward {
			copy(mk[:], key)
			if span, hit = j.memo[mk]; !hit && j.hit {
				forward = follows(key)
			}
		}
		if j.hit = hit; !hit {
			if !forward {
				idx.Seek(&j.it, key, 0)
				j.more = j.it.Next()
			}
			span[0] = len(j.ids)
			for ; j.more && bytes.Equal(j.it.Key(), key); j.more = j.it.Next() {
				j.ids = append(j.ids, j.it.ID())
			}
			span[1], j.last = len(j.ids), key
			if !forward {
				j.memo[mk] = span
			}
		}
		rids := j.ids[span[0]:span[1]]
		if forward { // only the memo's ids stay
			j.ids = j.ids[:span[0]]
		}
		cur.batch.reserve(len(rids), len(rids)*j.width)
		for _, rid := range rids {
			if j.remaining == 0 {
				return false
			}
			rp, ri, ok, err := rt.heap.get(rid)
			if err != nil {
				j.err = err
				return false
			}
			if !ok { // an index entry without its row: see walk
				continue
			}
			cur.batch.add(lp, li, cur.colIdx)
			cur.batch.addID(rid)
			cur.batch.addCells(rp, ri, j.colIdx)
			if j.remaining != unlimitedRows {
				j.remaining--
			}
		}
		return j.remaining > 0 && cur.batch.size() < cur.batchBytes
	}, nil
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
	if err == nil && t != cur.tab {
		err = fmt.Errorf("%w: table %q was dropped and made again during the read", ErrBadRequest, cur.name)
	}
	if err == nil {
		if !cur.started { // no row is out yet: the scan begins at this state
			cur.version = t.version
		}
		visit := func(p *page, i int) bool {
			cur.batch.add(p, i, cur.colIdx)
			return cur.batch.size() < cur.batchBytes
		}
		if cur.join != nil {
			visit, err = cur.join.pairs(cur)
		}
		if err == nil {
			err = cur.walk(t, visit)
		}
		if err == nil && cur.join != nil {
			err = cur.join.err
		}
	}
	// A walk that stopped short of a full batch ran out of rows.
	cur.done = err != nil || cur.batch.size() < cur.batchBytes || cur.remaining == 0 ||
		cur.join != nil && cur.join.remaining == 0
	var proof []byte
	if err == nil && cur.done && cur.proving {
		if t.version != cur.version {
			err = fmt.Errorf("%w: table %q went from version %d to %d between the scan's batches",
				ErrConcurrentWrite, cur.name, cur.version, t.version)
		} else {
			proof, err = t.proveScan(cur.filter)
		}
	}
	if err != nil {
		return nil, err
	}
	rows := cur.batch.rows(cur.done)
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
	idx, err := t.index(cur.filterCol)
	if err != nil {
		return err
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
