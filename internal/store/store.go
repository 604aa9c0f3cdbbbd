// Package store is the storage engine a Database Service Provider runs:
// share-space tables with B+-tree indexes, WAL-backed durability with
// incremental checkpoints, and the provider-side operators of the paper's
// query model — exact-match and range filtering over order-preserving
// shares, partial aggregation over field shares, and same-domain equijoins
// (Sec. V-A). The engine never sees client values, only shares and opaque
// plaintext cells.
//
// Rows live in a paged, file-backed heap (see page.go) behind a store-wide
// LRU page cache (cache.go), so tables larger than the cache budget — and
// larger than RAM — stay scannable: hot pages are pinned in memory, cold
// pages fault in from their epoch files on demand. Durability is a
// segmented WAL plus per-page checkpoint files tied together by a small
// manifest (manifest.go, checkpoint.go); restart replays only the WAL
// suffix after the last checkpoint and loads no page eagerly.
package store

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sssdb/internal/btree"
	"sssdb/internal/field"
	"sssdb/internal/merkle"
	"sssdb/internal/proto"
	"sssdb/internal/wal"
)

// fieldCellSize is the width of a field-share cell (an order-preserving
// cell's is its column spec's).
const fieldCellSize = 8

// Typed errors; the server maps them onto protocol error codes.
var (
	ErrNoSuchTable  = errors.New("store: no such table")
	ErrTableExists  = errors.New("store: table already exists")
	ErrNoSuchColumn = errors.New("store: no such column")
	ErrBadRequest   = errors.New("store: bad request")
	ErrDuplicateRow = errors.New("store: duplicate row id")
	ErrNoSuchRow    = errors.New("store: no such row id")
	// ErrConcurrentWrite fails a verified scan whose table was written
	// between its batches: no proof covers rows of two table states.
	ErrConcurrentWrite = errors.New("store: a write landed during the verified scan")
)

// Options tune a store's paging and durability behaviour. The zero value
// means defaults everywhere.
type Options struct {
	// CacheBytes bounds the total encoded bytes of resident pages. Zero
	// means DefaultCacheBytes; negative means unbounded. Memory-only stores
	// (no directory) are always unbounded — there is no backing file to
	// reload an evicted page from.
	CacheBytes int64
	// PageBytes is the target encoded size of one heap page (zero =
	// DefaultPageBytes). Pages that outgrow it split.
	PageBytes int
	// CheckpointInterval is the background checkpoint cadence (zero =
	// DefaultCheckpointInterval, negative = no background worker; callers
	// may still Checkpoint explicitly).
	CheckpointInterval time.Duration
}

// Store is one provider's database. Reads (Scan, aggregates, joins,
// ListTables) hold an internal RWMutex shared, so concurrent
// statements from the data source — the transport layer may deliver
// requests concurrently — execute in parallel; mutations (DDL, DML, WAL
// append, checkpoint capture) hold it exclusively. The page cache and WAL
// have their own leaf locks; lock order is always store.mu, then a
// table's lazyMu, then cache.mu, then the log.
type Store struct {
	mu     sync.RWMutex
	dir    string
	opts   Options
	log    *wal.Segmented
	tables map[string]*table
	cache  *pageCache

	// nextTableID names heaps in page files; never reused, persisted in the
	// manifest so recovered tables keep their files.
	nextTableID uint64
	// epochSeq numbers page files; strictly increasing (atomic — eviction
	// write-backs allocate epochs while a checkpoint holds no lock).
	epochSeq uint64

	// checkpointLSN is the WAL position the durable manifest covers;
	// replayed counts WAL records applied at Open. Guarded by mu.
	checkpointLSN uint64
	replayed      uint64
	checkpoints   uint64
	ckptFailures  uint64 // atomic

	// ckptMu serializes checkpoints (the background worker and explicit
	// calls); ckptHook is a test failpoint called between checkpoint stages.
	ckptMu   sync.Mutex
	ckptHook func(stage string) error

	// txMu guards staged: in-memory per-transaction op batches between
	// PrepareTx and CommitTx/AbortTx (see txn.go). Leaf lock; never held
	// while taking mu.
	txMu   sync.Mutex
	staged map[uint64]*proto.TxPrepareRequest

	stop chan struct{}
	wg   sync.WaitGroup
}

type table struct {
	spec proto.TableSpec
	heap *rowHeap
	// version counts the rows mutations have put or removed: two reads that
	// see one version saw one table state. Guarded by the store lock.
	version uint64
	// lazyMu guards cols: the state a read builds for the column it walks,
	// while it holds the store lock only shared.
	lazyMu sync.Mutex
	// cols holds one slot per column, made with the table (by CREATE, WAL
	// replay or a manifest restore) and empty until a read needs the
	// column's state.
	cols []lazyCol
}

// lazyCol is what reads build for one indexed column. index is a B+-tree
// set of (cell, row id) entries — the id tells rows with one share apart —
// built by the first read that walks the column (see table.index); from
// then on every write moves its rows' entries one by one, and while it is
// nil writes maintain nothing. merkle caches the column's Merkle state for
// proofs, rebuilt when the table's version has moved on.
type lazyCol struct {
	index  *btree.Tree
	merkle *merkleState
}

type merkleState struct {
	version uint64   // the table version the tree was built at; valid while it holds
	ids     []uint64 // row ids in index order; proofs rebuild leaves from the rows
	tree    *merkle.Tree
	root    merkle.Hash
}

// walPrefix names the segmented WAL's files: store.wal.<first-LSN>.
const walPrefix = "store.wal"

// Open creates a store rooted at dir with default Options; pass "" for a
// memory-only store (tests, benchmarks).
func Open(dir string) (*Store, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions creates a store rooted at dir. With a directory, state is
// recovered from the checkpoint manifest plus the WAL suffix after the
// checkpoint LSN; no page is loaded until first touched. Mutations are
// logged before being applied.
func OpenOptions(dir string, opts Options) (*Store, error) {
	if opts.PageBytes == 0 {
		opts.PageBytes = DefaultPageBytes
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = DefaultCacheBytes
	}
	if opts.CheckpointInterval == 0 {
		opts.CheckpointInterval = DefaultCheckpointInterval
	}
	s := &Store{dir: dir, opts: opts, tables: make(map[string]*table), nextTableID: 1}
	if dir == "" {
		s.cache = newPageCache(s, 0) // unbounded: no files to evict to
		return s, nil
	}
	budget := opts.CacheBytes
	if budget < 0 {
		budget = 0
	}
	s.cache = newPageCache(s, budget)
	// One level only: the data directory itself must already exist (callers
	// own its creation), the pages subdirectory is ours.
	if err := os.Mkdir(s.pagesDir(), 0o755); err != nil && !os.IsExist(err) {
		return nil, err
	}
	img, err := loadManifest(s.manifestPath())
	if err != nil {
		return nil, err
	}
	if err := s.cleanOrphanPages(img); err != nil {
		return nil, err
	}
	if img != nil {
		if err := s.restoreManifest(img); err != nil {
			return nil, err
		}
	}
	log, replayed, err := wal.OpenSegments(dir, walPrefix, s.checkpointLSN, func(_ uint64, rec []byte) error {
		return s.applyRecord(rec)
	})
	if err != nil {
		return nil, err
	}
	s.log = log
	s.replayed = replayed
	if opts.CheckpointInterval > 0 {
		s.stop = make(chan struct{})
		s.wg.Add(1)
		go s.checkpointLoop(opts.CheckpointInterval)
	}
	return s, nil
}

// nextEpoch allocates a globally unique page-file epoch.
func (s *Store) nextEpoch() uint64 {
	return atomic.AddUint64(&s.epochSeq, 1)
}

// RecoveredRecords reports how many WAL records Open replayed — after a
// checkpoint, only the suffix past the checkpoint LSN.
func (s *Store) RecoveredRecords() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.replayed
}

// Close stops the checkpoint worker and releases the WAL. It does not
// checkpoint; callers wanting a clean manifest call Checkpoint first.
func (s *Store) Close() error {
	if s.stop != nil {
		close(s.stop)
		s.wg.Wait()
		s.stop = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// Stats is a point-in-time snapshot of the store's paging and durability
// state; the server reports it on every ping so the client's repair loop
// can watch provider memory pressure and checkpoint lag.
type Stats struct {
	Tables        int
	Rows          uint64
	Pages         uint64 // directory entries across all tables
	ResidentPages uint64 // pages currently decoded in the cache
	ResidentBytes uint64 // exact encoded bytes of resident pages
	CacheBudget   uint64 // 0 = unbounded
	CacheHits     uint64
	CacheMisses   uint64
	Evictions     uint64
	Writebacks    uint64 // dirty evictions that wrote a page file
	WALRecords    uint64 // last appended LSN
	CheckpointLSN uint64 // LSN the durable manifest covers
	// CheckpointLag is WALRecords-CheckpointLSN: records a restart would
	// replay if the store crashed now.
	CheckpointLag      uint64
	Checkpoints        uint64
	CheckpointFailures uint64
	RecoveredRecords   uint64 // WAL records replayed at Open

	// WAL fsync lag: group-commit fsync count, cumulative and worst-case
	// wall time. A commit path stalling on a slow disk shows up here
	// before it shows up as tail latency.
	WALFsyncs       uint64
	WALFsyncNanos   uint64
	WALFsyncMaxNano uint64
}

// Stats returns current storage statistics.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Tables:             len(s.tables),
		Checkpoints:        s.checkpoints,
		CheckpointLSN:      s.checkpointLSN,
		CheckpointFailures: atomic.LoadUint64(&s.ckptFailures),
		RecoveredRecords:   s.replayed,
	}
	for _, t := range s.tables {
		st.Rows += uint64(t.heap.count)
		st.Pages += uint64(len(t.heap.pages))
	}
	c := s.cache
	c.mu.Lock()
	st.ResidentBytes = uint64(c.used)
	st.CacheBudget = uint64(c.budget)
	st.CacheHits, st.CacheMisses = c.hits, c.misses
	st.Evictions, st.Writebacks = c.evictions, c.writebacks
	for e := c.head; e != nil; e = e.next {
		st.ResidentPages++
	}
	c.mu.Unlock()
	if s.log != nil {
		st.WALRecords = s.log.LSN()
		st.CheckpointLag = st.WALRecords - st.CheckpointLSN
		st.WALFsyncs, st.WALFsyncNanos, st.WALFsyncMaxNano = s.log.SyncStats()
	}
	return st
}

// --- The mutation path ---
//
// Everything that changes a table — DDL, autocommit DML, a committed
// transaction, a WAL record replayed at Open — is one proto.Message taken
// through mutate: validate resolves it into row and table changes, the
// message is appended to the WAL, apply carries the changes out. A
// transaction's batch travels as the proto.TxPrepareRequest that staged it,
// so it is one record and a torn tail drops it whole.

// change is one step of a validated mutation.
type change struct {
	do  changeKind
	t   *table
	row proto.Row // putRow: the row as it will be; removeRow: its ID
}

type changeKind uint8

const (
	putRow changeKind = iota
	removeRow
	createTable
	dropTable
)

// mutate validates, logs and applies one mutation under a single hold of
// s.mu, then makes it durable with one group-committed fsync outside the
// lock, so readers proceed during the flush and concurrent mutations share
// it. The mutation is visible before it is durable; the caller is answered
// only after Sync returns. A mutation that fails validation, or changes
// nothing, appends nothing. Returns the rows changed.
func (s *Store) mutate(msg proto.Message) (rows uint64, err error) {
	s.mu.Lock()
	plan, err := s.validate(msg)
	log := s.log // nil in a memory-only store, and at Open while the WAL replays
	logged := err == nil && len(plan) > 0 && log != nil
	if logged {
		_, err = log.Append(proto.Encode(msg))
	}
	if err == nil {
		rows, err = s.apply(plan)
	}
	s.mu.Unlock()
	if err == nil && logged {
		err = log.Sync()
	}
	return rows, err
}

// applyRecord replays one WAL record.
func (s *Store) applyRecord(rec []byte) error {
	msg, err := proto.Decode(rec)
	if err != nil {
		return fmt.Errorf("store: decoding WAL record: %w", err)
	}
	_, err = s.mutate(msg)
	return err
}

// validate resolves a mutation into the changes it makes, or the reason it
// cannot run: a table that is missing or already there, a row that does not
// fit its table's shape, an INSERT of a live id, an UPDATE of a missing one,
// the same id twice in one INSERT or UPDATE. A DELETE of a missing id is
// neither an error nor a change. Each op of a transaction's batch is checked
// against the tables as the ops before it leave them — touched holds the
// liveness of every id the batch has put or removed so far — so a batch that
// deletes an id and re-inserts it is valid and one that inserts it twice is
// not. Nothing is modified; callers hold s.mu at least shared.
func (s *Store) validate(msg proto.Message) ([]change, error) {
	ops := []proto.Message{msg}
	if tx, ok := msg.(*proto.TxPrepareRequest); ok {
		ops = make([]proto.Message, 0, len(tx.Ops))
		for _, raw := range tx.Ops {
			op, err := proto.Decode(raw)
			if err != nil {
				return nil, fmt.Errorf("%w: undecodable tx op: %v", ErrBadRequest, err)
			}
			switch op.(type) {
			case *proto.InsertRequest, *proto.UpdateRequest, *proto.DeleteRequest:
				ops = append(ops, op)
			default:
				return nil, fmt.Errorf("%w: %T is not a transactional op", ErrBadRequest, op)
			}
		}
	}
	type rowKey struct {
		t  *table
		id uint64
	}
	type touch struct {
		live bool
		op   int // index in ops of the op that touched the row
	}
	var plan []change
	var touched map[rowKey]touch
	// live reports whether id is a row of t once the plan so far has run, and
	// which op of the batch last touched it (-1: none).
	live := func(t *table, id uint64) (bool, int, error) {
		if tc, ok := touched[rowKey{t, id}]; ok {
			return tc.live, tc.op, nil
		}
		_, _, ok, err := t.heap.get(id)
		return ok, -1, err
	}
	// step adds one row change, by op n of so many rows, to the plan. Only a
	// batch of more than one row or op can meet the row again, so only such
	// a batch records it in touched.
	step := func(c change, n, rows int) {
		if plan == nil {
			plan = make([]change, 0, rows)
		}
		if len(ops) > 1 || rows > 1 {
			if touched == nil {
				touched = make(map[rowKey]touch, rows)
			}
			touched[rowKey{c.t, c.row.ID}] = touch{live: c.do == putRow, op: n}
		}
		plan = append(plan, c)
	}
	put := func(n int, name string, rows []proto.Row, update bool) error {
		t, err := s.table(name)
		if err != nil {
			return err
		}
		for _, row := range rows {
			if err := t.validateRow(row); err != nil {
				return err
			}
			was, by, err := live(t, row.ID)
			switch {
			case err != nil:
				return err
			case was != update:
				if update {
					return fmt.Errorf("%w: %d", ErrNoSuchRow, row.ID)
				}
				return fmt.Errorf("%w: %d", ErrDuplicateRow, row.ID)
			case by == n:
				return fmt.Errorf("%w: %d (within batch)", ErrDuplicateRow, row.ID)
			}
			step(change{do: putRow, t: t, row: row}, n, len(rows))
		}
		return nil
	}
	for n, op := range ops {
		switch m := op.(type) {
		case *proto.CreateTableRequest:
			if err := m.Spec.Validate(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			if _, ok := s.tables[m.Spec.Name]; ok {
				return nil, fmt.Errorf("%w: %q", ErrTableExists, m.Spec.Name)
			}
			plan = append(plan, change{do: createTable, t: &table{spec: m.Spec, cols: make([]lazyCol, len(m.Spec.Columns))}})
		case *proto.DropTableRequest:
			t, err := s.table(m.Table)
			if err != nil {
				return nil, err
			}
			plan = append(plan, change{do: dropTable, t: t})
		case *proto.InsertRequest:
			if err := put(n, m.Table, m.Rows, false); err != nil {
				return nil, err
			}
		case *proto.UpdateRequest:
			if err := put(n, m.Table, m.Rows, true); err != nil {
				return nil, err
			}
		case *proto.DeleteRequest:
			t, err := s.table(m.Table)
			if err != nil {
				return nil, err
			}
			for _, id := range m.RowIDs {
				was, _, err := live(t, id)
				if err != nil {
					return nil, err
				}
				if was {
					step(change{do: removeRow, t: t, row: proto.Row{ID: id}}, n, len(m.RowIDs))
				}
			}
		default:
			return nil, fmt.Errorf("%w: %T is not a mutation", ErrBadRequest, op)
		}
	}
	return plan, nil
}

// apply carries out a validated plan and returns the rows it put or removed:
// the one place a mutation reaches the tables.
func (s *Store) apply(plan []change) (rows uint64, err error) {
	for _, c := range plan {
		switch t := c.t; c.do {
		case putRow:
			rows++
			err = t.put(c.row)
		case removeRow:
			rows++
			err = t.remove(c.row.ID)
		case createTable:
			t.heap = &rowHeap{s: s, tableID: s.nextTableID, shape: shapeOf(&t.spec)}
			s.nextTableID++
			s.tables[t.spec.Name] = t
		case dropTable:
			t.heap.drop()
			delete(s.tables, t.spec.Name)
		}
		if err != nil {
			return rows, err
		}
	}
	return rows, nil
}

// CreateTable creates an empty table from the spec.
func (s *Store) CreateTable(spec proto.TableSpec) error {
	_, err := s.mutate(&proto.CreateTableRequest{Spec: spec})
	return err
}

// DropTable removes a table.
func (s *Store) DropTable(name string) error {
	_, err := s.mutate(&proto.DropTableRequest{Table: name})
	return err
}

// Insert adds rows; every row id must be fresh. The batch is atomic: any
// validation failure rejects the whole batch before anything is applied.
func (s *Store) Insert(name string, rows []proto.Row) error {
	_, err := s.mutate(&proto.InsertRequest{Table: name, Rows: rows})
	return err
}

// Update replaces existing rows in full (the paper's eager update path);
// like Insert, all of the batch or none of it.
func (s *Store) Update(name string, rows []proto.Row) error {
	_, err := s.mutate(&proto.UpdateRequest{Table: name, Rows: rows})
	return err
}

// Delete removes rows by id, returning how many existed.
func (s *Store) Delete(name string, ids []uint64) (uint64, error) {
	return s.mutate(&proto.DeleteRequest{Table: name, RowIDs: ids})
}

// Mutate runs a request that changes the store — DDL, DML, or a step of the
// client's two-phase commit — and returns the rows it changed (none, for a
// request that only stages or discards a transaction).
func (s *Store) Mutate(req proto.Message) (uint64, error) {
	switch m := req.(type) {
	case *proto.TxPrepareRequest:
		return 0, s.PrepareTx(m.TxID, m.Ops)
	case *proto.TxCommitRequest:
		return 0, s.CommitTx(m.TxID)
	case *proto.TxAbortRequest:
		s.AbortTx(m.TxID)
		return 0, nil
	}
	return s.mutate(req)
}

// ListTables returns all table specs, sorted by name.
func (s *Store) ListTables() []proto.TableSpec {
	s.mu.RLock()
	defer s.mu.RUnlock()
	specs := make([]proto.TableSpec, 0, len(s.tables))
	for _, t := range s.tables {
		specs = append(specs, t.spec)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}

// --- Validation helpers ---

func (s *Store) table(name string) (*table, error) {
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// validateRow checks arity and per-kind cell widths: that the row fits the
// table's page shape.
func (t *table) validateRow(row proto.Row) error {
	if _, err := t.heap.shape.RowSize(row.Cells); err != nil {
		return fmt.Errorf("%w: row %d of table %q: %v", ErrBadRequest, row.ID, t.spec.Name, err)
	}
	return nil
}

// appendIndexKey appends cell||rowID to dst: an index entry as a Merkle leaf
// hashes it.
func appendIndexKey(dst, cell []byte, rowID uint64) []byte {
	return binary.BigEndian.AppendUint64(append(slices.Grow(dst, len(cell)+8), cell...), rowID)
}

// ProofLeaf returns the two halves of row's leaf in the Merkle tree over an
// indexed column whose cell of the row is cell: the index key (cell, then
// the row id), appended to dst, and the row's digest. merkle.LeafHash of
// the two is the leaf; the provider's proofs and the client's check of them
// both take it from here.
func ProofLeaf(dst, cell []byte, row proto.Row) (key, digest []byte) {
	return appendIndexKey(dst, cell, row.ID), RowDigest(row)
}

// row locates one row by id, faulting its page in if needed: the page and
// the row's position in it.
func (t *table) row(id uint64) (*page, int, error) {
	p, i, ok, err := t.heap.get(id)
	if err == nil && !ok {
		err = fmt.Errorf("%w: %d", ErrNoSuchRow, id)
	}
	return p, i, err
}

// index returns indexed column ci's B+-tree, building it if no read has
// walked the column yet: one heap walk hands the column's (cell, row id)
// entries to a btree.Loader, which sorts them and builds the tree bottom-up.
// Callers hold the store lock at least shared; lazyMu serializes the build.
func (t *table) index(ci int) (*btree.Tree, error) {
	t.lazyMu.Lock()
	defer t.lazyMu.Unlock()
	c := &t.cols[ci]
	if c.index != nil {
		return c.index, nil
	}
	l := btree.NewLoader(int(t.spec.Columns[ci].Width), t.heap.count)
	err := t.heap.ascendPages(0, false, func(p *page, _ int) (bool, error) {
		for i, id := range p.IDs {
			l.Add(p.Cell(i, ci), id)
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	c.index = l.Tree()
	return c.index, nil
}

// put stores a row — new, or in place of the one with its id — keeps the
// built B+-trees in step with the heap and moves the table to its next
// version. A column whose tree no read has built yet needs nothing: the
// build will see the heap's current state.
func (t *table) put(row proto.Row) error {
	t.version++
	fresh := true
	err := t.heap.put(row, func(p *page, i int) {
		fresh = false
		t.reindex(p, i, row.Cells)
	})
	if err != nil {
		return err
	}
	for ci, c := range t.cols {
		if fresh && c.index != nil {
			c.index.Insert(row.Cells[ci], row.ID)
		}
	}
	return nil
}

// remove deletes the row with the id and its index entries, and moves the
// table to its next version.
func (t *table) remove(id uint64) error {
	t.version++
	return t.heap.delete(id, func(p *page, i int) { t.reindex(p, i, nil) })
}

// reindex moves the index entries of row i of p, which is about to become
// cells (nil: to go). An entry whose cell stays the same stays where it is:
// shares are deterministic, so an UPDATE of one column touches one index.
func (t *table) reindex(p *page, i int, cells [][]byte) {
	id := p.IDs[i]
	for ci, c := range t.cols {
		if c.index == nil {
			continue
		}
		if old := p.Cell(i, ci); cells == nil || !bytes.Equal(old, cells[ci]) {
			c.index.Delete(old, id)
			if cells != nil {
				c.index.Insert(cells[ci], id)
			}
		}
	}
}

// --- Reads ---

// NoColumns is the projection of a read that wants row ids and no cells.
// It is empty but not nil: a nil projection means every column.
var NoColumns = []string{}

// resolveProjection maps projection names to column indices: every column
// when projection is nil, none when it is empty (NoColumns).
func (t *table) resolveProjection(projection []string) ([]string, []int, error) {
	if projection == nil {
		names := make([]string, len(t.spec.Columns))
		idx := make([]int, len(t.spec.Columns))
		for i, c := range t.spec.Columns {
			names[i] = c.Name
			idx[i] = i
		}
		return names, idx, nil
	}
	idx := make([]int, len(projection))
	for i, name := range projection {
		ci := t.spec.ColumnIndex(name)
		if ci < 0 {
			return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchColumn, name)
		}
		idx[i] = ci
	}
	return projection, idx, nil
}

// filterBounds resolves a filter to its column index and inclusive
// [lo, hi] cell range, rejecting field-share columns and, on a fixed-width
// column, a bound of any other width: compared with the column's cells it
// would silently select the wrong rows.
func (t *table) filterBounds(f *proto.Filter) (int, []byte, []byte, error) {
	ci, err := t.usableCol(f.Col, "filter on", false)
	if err != nil {
		return 0, nil, nil, err
	}
	lo, hi := f.Lo, f.Hi
	if f.Op == proto.FilterEq {
		hi = lo
	} else if f.Op != proto.FilterRange {
		return 0, nil, nil, fmt.Errorf("%w: unknown filter op %d", ErrBadRequest, f.Op)
	}
	if want := t.heap.shape.Widths[ci]; want != proto.Variable && (len(lo) != want || len(hi) != want) {
		return 0, nil, nil, fmt.Errorf("%w: filter bounds on column %q are %d and %d bytes, its cells are %d",
			ErrBadRequest, f.Col, len(lo), len(hi), want)
	}
	return ci, lo, hi, nil
}

// Scan drains a cursor over the scan into one response: rows matching the
// filter, projected (nil = every column, NoColumns = ids only) and capped at
// limit (0 = unlimited), with the completeness proof of the last batch when
// withProof (see ScanCursor.Prove). The response owns its bytes.
func (s *Store) Scan(name string, f *proto.Filter, projection []string, limit uint64, withProof bool) (*proto.RowsResponse, error) {
	cur, err := s.OpenCursor(name, f, projection, limit, 0)
	if err == nil && withProof {
		err = cur.Prove()
	}
	if err != nil {
		return nil, err
	}
	resp := &proto.RowsResponse{Columns: cur.cols}
	for {
		batch, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			return resp, nil
		}
		resp.Rows, resp.Proof = append(resp.Rows, batch.Rows...), batch.Proof
	}
}

// RowDigest hashes a row's full content; it is the Merkle leaf payload and
// is exported so client and server derive identical digests.
func RowDigest(row proto.Row) []byte {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], row.ID)
	h.Write(buf[:])
	for _, c := range row.Cells {
		binary.BigEndian.PutUint64(buf[:], uint64(len(c)))
		h.Write(buf[:])
		h.Write(c)
	}
	return h.Sum(nil)
}

// merkleFor returns the Merkle state of indexed column ci at the table's
// current version, building it if the cached one is older. Callers hold the
// store lock at least shared, which pins the heap, the column's tree and the
// version; lazyMu additionally serializes builds, so concurrent
// proof-carrying scans build each column's state once and then share it.
func (t *table) merkleFor(ci int) (*merkleState, error) {
	idx, err := t.index(ci)
	if err != nil {
		return nil, err
	}
	t.lazyMu.Lock()
	defer t.lazyMu.Unlock()
	if m := t.cols[ci].merkle; m != nil && m.version == t.version {
		return m, nil
	}
	m := &merkleState{version: t.version, ids: make([]uint64, 0, idx.Len())}
	leaves := make([]merkle.Hash, 0, idx.Len())
	var row proto.Row
	var it btree.Iter
	var key, digest []byte
	for idx.Seek(&it, nil, 0); it.Next(); {
		p, i, err := t.row(it.ID())
		if err != nil {
			return nil, err
		}
		row = rowAt(p, i, row.Cells)
		m.ids = append(m.ids, it.ID())
		key, digest = ProofLeaf(key[:0], it.Key(), row)
		leaves = append(leaves, merkle.LeafHash(key, digest))
	}
	m.tree = merkle.New(leaves)
	m.root = m.tree.Root()
	t.cols[ci].merkle = m
	return m, nil
}

// proveScan builds the completeness proof for a filter over an indexed
// column: the run of matching leaves extended by one fence on each side,
// under the root and leaf count of the tree it was cut from — the tree of
// the table's current version, which the caller has checked is the version
// the scan's rows were read at.
func (t *table) proveScan(f *proto.Filter) ([]byte, error) {
	ci, lo, hi, err := t.filterBounds(f)
	if err != nil {
		return nil, err
	}
	m, err := t.merkleFor(ci)
	if err != nil {
		return nil, err
	}
	// keyAt rebuilds leaf i's index key from its row, which it leaves in row.
	var row proto.Row
	var rowErr error
	keyAt := func(i int) []byte {
		p, j, err := t.row(m.ids[i])
		if err != nil {
			rowErr = err
			return nil
		}
		row = rowAt(p, j, row.Cells)
		return appendIndexKey(nil, row.Cells[ci], row.ID)
	}
	loKey, hiKey := appendIndexKey(nil, lo, 0), appendIndexKey(nil, hi, ^uint64(0))
	start := sort.Search(len(m.ids), func(i int) bool { return bytes.Compare(keyAt(i), loKey) >= 0 })
	end := sort.Search(len(m.ids), func(i int) bool { return bytes.Compare(keyAt(i), hiKey) > 0 })
	fence := func(i int) *merkle.FenceLeaf {
		if keyAt(i) == nil {
			return nil
		}
		k, d := ProofLeaf(nil, row.Cells[ci], row)
		return &merkle.FenceLeaf{Key: k, RowDigest: d}
	}
	runStart, runEnd := start, end
	p := &merkle.RangeProof{N: uint64(len(m.ids)), Root: m.root}
	if start > 0 {
		runStart = start - 1
		p.LeftFence = fence(runStart)
	}
	if end < len(m.ids) {
		runEnd = end + 1
		p.RightFence = fence(end)
	}
	if rowErr != nil {
		return nil, rowErr
	}
	p.Start = uint64(runStart)
	hashes, err := m.tree.ProveRange(runStart, runEnd)
	if err != nil {
		return nil, err
	}
	p.Hashes = hashes
	return p.Marshal(), nil
}

// ResyncDigest returns a provider-neutral Merkle summary of a whole table:
// leaves walk the row ids in order, and each leaf commits to the row's id,
// its cell shapes, and the full bytes of plaintext-replicated (KindPlain)
// cells. Share cells are covered by length only — OPP and field shares
// differ across providers by construction, so their bytes can never agree —
// which makes this the strongest digest two providers holding the same
// logical table must agree on. The repair loop compares it against a
// healthy peer before readmitting a recovered provider.
func (s *Store) ResyncDigest(name string) (*proto.DigestResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.table(name)
	if err != nil {
		return nil, err
	}
	leaves := make([]merkle.Hash, 0, t.heap.count)
	var key [8]byte
	var row proto.Row
	err = t.heap.ascendPages(0, false, func(p *page, _ int) (bool, error) {
		for i, id := range p.IDs {
			binary.BigEndian.PutUint64(key[:], id)
			row = rowAt(p, i, row.Cells)
			leaves = append(leaves, merkle.LeafHash(key[:], resyncRowDigest(&t.spec, row)))
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	root := merkle.New(leaves).Root()
	return &proto.DigestResult{Root: root[:], Count: uint64(len(leaves))}, nil
}

// resyncRowDigest hashes the provider-neutral view of one row: plaintext
// cells fully, share cells by length.
func resyncRowDigest(spec *proto.TableSpec, row proto.Row) []byte {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], row.ID)
	h.Write(buf[:])
	for i, c := range row.Cells {
		binary.BigEndian.PutUint64(buf[:], uint64(len(c)))
		h.Write(buf[:])
		if i < len(spec.Columns) && spec.Columns[i].Kind == proto.KindPlain {
			h.Write(c)
		}
	}
	return h.Sum(nil)
}

// usableCol resolves a column an operator is about to use. Field shares are
// random per row: they sum (share linearity) and nothing else, so a use
// that needs them refuses the other kinds and every other use refuses them.
func (t *table) usableCol(name, use string, needField bool) (int, error) {
	ci := t.spec.ColumnIndex(name)
	if ci < 0 {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchColumn, name)
	}
	if kind := t.spec.Columns[ci].Kind; (kind == proto.KindField) != needField {
		return 0, fmt.Errorf("%w: cannot %s %s column %q", ErrBadRequest, use, kind, name)
	}
	return ci, nil
}

// fieldSum adds the field share in cell to sum, modulo the field prime.
func fieldSum(sum uint64, cell []byte) uint64 {
	return field.New(sum).Add(field.New(binary.BigEndian.Uint64(cell))).Uint64()
}

// Aggregate computes a provider-side partial aggregate (Sec. V-A: providers
// "perform an intermediate computation"; the data source combines k of
// them). One cursor walk partitions the matching rows into buckets by
// GroupCol's cell bytes — without a GroupCol they are one bucket with an empty
// key — and reduces each bucket to its count and, by Op, the field-share sum of
// ValueCol or the row MIN/MAX/MEDIAN picks by OrderCol. Buckets come back in
// key-byte order, which for OPP columns is value order — identical at every
// provider, so the client aligns bucket partials positionally.
func (s *Store) Aggregate(req *proto.AggregateRequest) (*proto.GroupResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.table(req.Table)
	if err != nil {
		return nil, err
	}
	gi, oi, vi := -1, -1, -1
	if req.GroupCol != "" {
		if gi, err = t.usableCol(req.GroupCol, "group by", false); err != nil {
			return nil, err
		}
	}
	switch req.Op {
	case proto.AggCount:
	case proto.AggMin, proto.AggMax, proto.AggMedian:
		if oi, err = t.usableCol(req.OrderCol, "order by", false); err != nil {
			return nil, err
		}
		fallthrough
	case proto.AggSum:
		vi, err = t.usableCol(req.ValueCol, "aggregate", true)
	default:
		err = fmt.Errorf("%w: unknown aggregate op %d", ErrBadRequest, req.Op)
	}
	if err != nil {
		return nil, err
	}
	cur, err := t.openCursor(req.Filter, NoColumns, 0)
	if err != nil {
		return nil, err
	}
	// Order cells alias their pages: the shared store lock keeps every slab
	// unmutated, and an evicted page's bytes live on while referenced here.
	type idCell struct {
		id   uint64
		cell []byte
	}
	type bucket struct {
		proto.GroupPartial
		ordered []idCell
	}
	buckets := make(map[string]*bucket)
	// No key: every matching row falls into the one bucket, made before the
	// walk so that the per-row closure stores no pointer it captured (a store
	// the GC's write barrier would tax on every row).
	var only *bucket
	if gi < 0 {
		only = &bucket{}
	}
	err = cur.walk(t, func(p *page, i int) bool {
		b := only
		if b == nil {
			key := p.Cell(i, gi)
			if b = buckets[string(key)]; b == nil {
				b = &bucket{GroupPartial: proto.GroupPartial{Key: slices.Clone(key)}}
				buckets[string(key)] = b
			}
		}
		b.Count++
		if oi >= 0 {
			b.ordered = append(b.ordered, idCell{id: p.IDs[i], cell: p.Cell(i, oi)})
		} else if vi >= 0 {
			b.Sum = fieldSum(b.Sum, p.Cell(i, vi))
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if only != nil && only.Count > 0 {
		buckets[""] = only
	}
	// Order preservation makes the least, greatest and lower-median row of a
	// bucket the same row at every provider; equal cells order by row id.
	order := func(x, y idCell) int {
		return cmp.Or(bytes.Compare(x.cell, y.cell), cmp.Compare(x.id, y.id))
	}
	res := &proto.GroupResult{Picks: oi >= 0, Groups: make([]proto.GroupPartial, 0, len(buckets))}
	for _, b := range buckets {
		if oi >= 0 {
			var pick idCell
			switch req.Op {
			case proto.AggMin:
				pick = slices.MinFunc(b.ordered, order)
			case proto.AggMax:
				pick = slices.MaxFunc(b.ordered, order)
			default:
				slices.SortFunc(b.ordered, order)
				pick = b.ordered[(len(b.ordered)-1)/2]
			}
			p, i, err := t.row(pick.id)
			if err != nil {
				return nil, err
			}
			// The pick's id lets the client check that every provider picked
			// the same row; of its cells only the value share is of any use.
			b.Pick, b.Sum = pick.id, binary.BigEndian.Uint64(p.Cell(i, vi))
		}
		res.Groups = append(res.Groups, b.GroupPartial)
	}
	slices.SortFunc(res.Groups, func(a, b proto.GroupPartial) int { return bytes.Compare(a.Key, b.Key) })
	return res, nil
}

// AggregateGrouped is Aggregate spelled positionally, kept only because the
// frozen benchmark/probes.go calls it; the next [benchmark] PR calls Aggregate
// and removes it.
func (s *Store) AggregateGrouped(name string, op proto.AggOp, valueCol, groupCol string, f *proto.Filter) (*proto.GroupResult, error) {
	return s.Aggregate(&proto.AggregateRequest{Table: name, Op: op, ValueCol: valueCol, GroupCol: groupCol, Filter: f})
}

// Projection turns a request's projection — its column names and its
// ids-only flag — into the one Scan, OpenCursor and OpenJoin take: no name means
// every column (nil) unless the request asked for ids only (NoColumns).
func Projection(names []string, idsOnly bool) []string {
	switch {
	case idsOnly:
		return NoColumns
	case len(names) == 0:
		return nil
	}
	return names
}

// RowCount returns the number of rows in a table.
func (s *Store) RowCount(name string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.table(name)
	if err != nil {
		return 0, err
	}
	return t.heap.count, nil
}
