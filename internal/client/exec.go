package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"sssdb/internal/field"
	"sssdb/internal/opp"
	"sssdb/internal/proto"
	"sssdb/internal/secretshare"
	"sssdb/internal/sql"
)

// Exec parses and executes one SQL statement against the provider fleet.
// Each statement's plan names its lock mode. Plain scans (SELECT without
// aggregates, joins, or verification) hold a routed group's statement lock
// shared and run concurrently with each other and with INSERTs, buffered lazy
// updates or not; INSERT also runs shared — it only appends rows under
// freshly reserved ids, and scans hide ids above the stable watermark (see
// stableWatermark) so a half-landed insert is never observed. UPDATE, DELETE,
// DDL, and SELECTs that combine per-provider computations without row ids to
// filter on (aggregates, joins, verified reads) hold it exclusively, so they
// observe — and present — either the pre- or post-statement share sets, never
// a mix.
func (c *Client) Exec(query string) (*Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sql.Select:
		return c.execSelect(s, nil)
	case *sql.Explain:
		return c.execExplain(s)
	case *sql.Insert, *sql.Update, *sql.Delete:
		return c.execWrite(s, nil)
	case *sql.CreateTable:
		return c.execCreateTable(s)
	case *sql.DropTable:
		return c.execDropTable(s)
	case *sql.BeginTx, *sql.CommitTx, *sql.RollbackTx:
		// Transactions need a handle to buffer statements on: BEGIN maps to
		// Client.Begin, COMMIT/ROLLBACK to methods of the returned Tx (the
		// dasql REPL does this mapping for interactive sessions).
		return nil, fmt.Errorf("%w: %T outside a transaction handle (use Client.Begin and Tx.Exec)",
			ErrUnsupported, stmt)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupported, stmt)
	}
}

// --- DDL ---

// execCreateTable builds the catalog entry, creates the share-space table in
// every group, and only then publishes the entry. DDL holds every group's
// statement lock exclusively, which also serializes it against other DDL.
func (c *Client) execCreateTable(s *sql.CreateTable) (*Result, error) {
	all := c.allGroups()
	unlock, err := c.lock(all, true)
	if err != nil {
		return nil, err
	}
	defer unlock()
	meta, err := c.newTableMeta(s.Name, s.Public, s.Columns, c.opts.ShardKeys[s.Name])
	if err != nil {
		return nil, err
	}
	spec := meta.providerSpec()
	created := make([]bool, len(all))
	err = c.fan(all, func(i, g int) error {
		_, err := c.groups[g].callWrite(func(int) proto.Message {
			return &proto.CreateTableRequest{Spec: spec}
		})
		created[i] = err == nil
		return err
	})
	if err != nil {
		// Compensate: drop from the groups that did create it, or a retry
		// would find the table half there.
		for g, ok := range created {
			if ok {
				_ = c.groups[g].dropTable(meta)
			}
		}
		return nil, err
	}
	c.cat.mu.Lock()
	c.cat.tables[s.Name] = meta
	c.cat.mu.Unlock()
	return &Result{}, nil
}

// execDropTable drops the table in every group and then retires the catalog
// entry. If some group fails, the entry stays and the DROP can be retried:
// providers that already dropped the table acknowledge again (see callWrite).
func (c *Client) execDropTable(s *sql.DropTable) (*Result, error) {
	all := c.allGroups()
	unlock, err := c.lock(all, true)
	if err != nil {
		return nil, err
	}
	defer unlock()
	meta, err := c.cat.table(s.Name)
	if err != nil {
		return nil, err
	}
	if err := c.fan(all, func(_, g int) error { return c.groups[g].dropTable(meta) }); err != nil {
		return nil, err
	}
	meta.dropped = true
	c.cat.mu.Lock()
	delete(c.cat.tables, s.Name)
	c.cat.mu.Unlock()
	return &Result{}, nil
}

// dropTable drops the table at this group's providers and forgets the
// group's per-table state.
func (e *engine) dropTable(meta *tableMeta) error {
	if _, err := e.callWrite(func(int) proto.Message {
		return &proto.DropTableRequest{Table: meta.Name}
	}); err != nil {
		return err
	}
	delete(e.pending, meta.Name)
	e.insMu.Lock()
	delete(e.inflight, meta.Name)
	e.insMu.Unlock()
	return nil
}

// --- DML: one write path ---

// writeKind is what a DML statement does to the rows it names.
type writeKind uint8

const (
	writeInsert writeKind = iota
	writeUpdate
	writeDelete
)

// write is a DML statement resolved against the catalog — autocommit or
// buffered in a Tx alike — which engine.lower turns into provider messages: an
// INSERT's typed rows, or the read round of an UPDATE or DELETE and an
// UPDATE's resolved assignments.
type write struct {
	kind    writeKind
	meta    *tableMeta
	rows    [][]Value
	assigns []assign
	// read finds an UPDATE's or DELETE's rows: ids only, or whole rows to
	// re-share. It flushes the table's lazy updates first, unless the UPDATE
	// is lazy itself: then its scan overlays them.
	read *selectPlan
	// lazy: an autocommit UPDATE under Options.LazyUpdates, whose rows are
	// buffered unsent until Flush.
	lazy bool
}

// exclusive is the write's statement-lock mode: an INSERT only appends rows
// under fresh ids, which scans hide until every provider's fate is settled.
func (w *write) exclusive() bool { return w.kind != writeInsert }

// InsertValues outsources pre-typed rows, bypassing SQL parsing; bulk
// loaders and the workload generators use it.
func (c *Client) InsertValues(table string, rows [][]Value) (*Result, error) {
	return c.execWrite(&sql.Insert{Table: table}, rows)
}

// resolveWrite is the one parser of DML. It resolves an INSERT, UPDATE or
// DELETE against the catalog, so every error short of a provider's — a
// missing table or column, a mistyped literal or a row of the wrong arity, an
// assignment to the shard key — surfaces before anything is routed or
// buffered. typed, when non-nil, are an INSERT's rows already typed
// (InsertValues); autocommit is false for a write a Tx buffers, which is never
// lazy.
func (c *Client) resolveWrite(stmt sql.Statement, typed [][]Value, autocommit bool) (*write, error) {
	var w write
	var where []sql.Predicate
	var err error
	switch s := stmt.(type) {
	case *sql.Insert:
		if w.meta, err = c.cat.table(s.Table); err != nil {
			return nil, err
		}
		if typed != nil {
			w.rows, err = parseRows(w.meta, typed, func(_ *colMeta, v Value) (Value, error) { return v, nil })
		} else {
			w.rows, err = parseRows(w.meta, s.Rows, (*colMeta).parseValue)
		}
	case *sql.Update:
		w.kind, where = writeUpdate, s.Where
		if w.meta, err = c.cat.table(s.Table); err == nil {
			w.assigns, err = resolveAssigns(w.meta, s.Set)
		}
	case *sql.Delete:
		w.kind, where = writeDelete, s.Where
		w.meta, err = c.cat.table(s.Table)
	}
	if err == nil && w.kind != writeInsert {
		w.lazy = autocommit && w.kind == writeUpdate && c.opts.LazyUpdates
		w.read = &selectPlan{meta: w.meta, flush: !w.lazy, oci: -1}
		w.read.targets, w.read.route = c.routeGroups(w.meta, where)
		if w.kind == writeUpdate {
			w.read.fetch = w.meta.allCols()
		}
		w.read.preds, err = compilePredicates(w.meta, where, "")
	}
	if err != nil {
		return nil, err
	}
	return &w, nil
}

// parseRows checks an INSERT's rows against the schema's arity and types
// every cell into one slab the write owns: SQL literals are parsed, the
// pre-typed rows of InsertValues copied, so a caller may reuse its rows once
// the call returns.
func parseRows[T any](meta *tableMeta, in [][]T, cell func(*colMeta, T) (Value, error)) ([][]Value, error) {
	n := len(meta.Cols)
	slab := make([]Value, len(in)*n)
	rows := make([][]Value, len(in))
	for r, row := range in {
		if len(row) != n {
			return nil, fmt.Errorf("%w: %d values for %d columns", ErrTypeMismatch, len(row), n)
		}
		rows[r] = slab[r*n : (r+1)*n : (r+1)*n]
		for ci, v := range row {
			var err error
			if rows[r][ci], err = cell(&meta.Cols[ci], v); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// assign is one resolved SET clause of an UPDATE.
type assign struct {
	ci  int
	val Value
}

// resolveAssigns types an UPDATE's SET clauses against the schema.
func resolveAssigns(meta *tableMeta, set []sql.Assignment) ([]assign, error) {
	assigns := make([]assign, 0, len(set))
	for _, a := range set {
		cm, err := meta.col(a.Col)
		if err != nil {
			return nil, err
		}
		ci := meta.colIndex(a.Col)
		if ci == meta.shardCol {
			// Re-assigning the shard key would strand the row in a group its
			// key no longer routes to.
			return nil, fmt.Errorf("%w: UPDATE of shard key %q (delete and re-insert instead)",
				ErrUnsupported, a.Col)
		}
		v, err := cm.parseValue(a.Value)
		if err != nil {
			return nil, err
		}
		assigns = append(assigns, assign{ci: ci, val: v})
	}
	return assigns, nil
}

// route picks the groups a write reaches, ascending: an INSERT's rows are
// partitioned onto their owning groups (batches[g] is group g's), an UPDATE
// or DELETE goes where its WHERE routes it.
func (c *Client) route(w *write) (targets []int, batches [][][]Value, err error) {
	if w.kind == writeInsert {
		return c.partitionRows(w.meta, w.rows)
	}
	return w.read.targets, make([][][]Value, len(c.groups)), nil
}

// execWrite runs one DML statement on its own: resolve, route, and in every
// routed group — under its statement lock, in the write's mode — lower it and
// deliver the messages, or buffer a lazy UPDATE's rows. Atomicity
// is per group: a group that fails its part (an INSERT's is rolled back there)
// leaves the parts other groups committed, and the joined error names it.
func (c *Client) execWrite(stmt sql.Statement, typed [][]Value) (*Result, error) {
	w, err := c.resolveWrite(stmt, typed, true)
	if err != nil {
		return nil, err
	}
	targets, batches, err := c.route(w)
	if err != nil {
		return nil, err
	}
	var affected atomic.Uint64
	err = c.scatter(targets, w.exclusive(), []*tableMeta{w.meta}, func(_ int, e *engine) error {
		l, err := e.lower(w, batches[e.g])
		if err != nil {
			return err
		}
		affected.Add(uint64(len(l.ids)))
		switch {
		case w.kind == writeInsert:
			defer e.releaseIDs(w.meta, l.ids[0])
		case len(l.ids) == 0:
			return nil
		case w.lazy:
			pend := e.pending[w.meta.Name]
			if pend == nil {
				pend = make(map[uint64][]Value)
				e.pending[w.meta.Name] = pend
			}
			for r, id := range l.ids {
				pend[id] = l.rows[r]
			}
			return nil
		}
		succeeded, err := e.callWrite(func(p int) proto.Message { return l.msgs[p] })
		if err == nil || w.kind != writeInsert {
			return err
		}
		// Best-effort compensation: providers that accepted the batch would
		// otherwise hold rows their peers lack, permanently forking the share
		// sets. Delete the batch from every provider it landed on, in one
		// round. A rollback that fails on transport is additionally queued as
		// a hint so the repair loop heals the fork once the provider returns.
		// The reservation is burned either way (ids are never reused), so a
		// retry starts from fresh ids.
		rollback := &proto.DeleteRequest{Table: w.meta.Name, RowIDs: l.ids}
		t := round(succeeded, e.deliver(func(int) proto.Message { return rollback }))
		for _, p := range t.unreached {
			e.hint(p, rollback)
		}
		if failed := errors.Join(t.rejection, t.outage); failed != nil {
			return errors.Join(err, fmt.Errorf("rollback on %w", failed))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: affected.Load()}, nil
}

// lowered is one write's part in one group: the row ids it writes or deletes,
// an UPDATE's new rows, and provider p's request in msgs[p] — nil when no row
// is touched here, and for a lazy UPDATE, whose rows are buffered instead.
type lowered struct {
	ids  []uint64
	rows [][]Value
	msgs []proto.Message
}

// lower is the one place a write becomes provider messages — the paper's
// update flow (Sec. V-C) in one group. An INSERT reserves fresh ids for batch,
// the group's share of its rows; an UPDATE or DELETE runs its read round
// (write.read) — a DELETE's finds row ids, an UPDATE's whole rows, to which
// its assignments are applied — and the rows are re-shared into each
// provider's request. The caller holds the group's statement lock in the
// write's mode and retires an INSERT's reservation, based at ids[0], once
// every provider's fate is settled: until then scans hide the range (see
// stableWatermark), so no reader sees the batch on one provider and not another.
func (e *engine) lower(w *write, batch [][]Value) (*lowered, error) {
	meta, l := w.meta, &lowered{rows: batch}
	if w.kind == writeInsert {
		base := e.reserveIDs(meta, uint64(len(batch)))
		l.ids = make([]uint64, len(batch))
		for r := range l.ids {
			l.ids[r] = base + uint64(r)
		}
	} else {
		scan, err := e.scanPlan(w.read)
		if err != nil {
			return nil, err
		}
		l.ids, l.rows = scan.ids, scan.values
		for _, row := range l.rows {
			for _, a := range w.assigns {
				row[a.ci] = a.val
			}
		}
	}
	if len(l.ids) == 0 || w.lazy {
		return l, nil
	}
	var err error
	if l.msgs, err = e.requests(meta, w.kind, l.ids, l.rows); err != nil {
		if w.kind == writeInsert {
			e.releaseIDs(meta, l.ids[0])
		}
		return nil, err
	}
	return l, nil
}

// requests builds each provider's request for rows under ids: the row ids of a
// DELETE, or the rows of an INSERT or UPDATE, encoded afresh.
func (e *engine) requests(meta *tableMeta, kind writeKind, ids []uint64, rows [][]Value) ([]proto.Message, error) {
	msgs := make([]proto.Message, e.opts.N)
	if kind == writeDelete {
		del := &proto.DeleteRequest{Table: meta.Name, RowIDs: ids}
		for p := range msgs {
			msgs[p] = del
		}
		return msgs, nil
	}
	perProvider, err := e.encodeRowsAt(meta, ids, rows)
	if err != nil {
		return nil, err
	}
	for p := range msgs {
		if kind == writeInsert {
			msgs[p] = &proto.InsertRequest{Table: meta.Name, Rows: perProvider[p]}
		} else {
			msgs[p] = &proto.UpdateRequest{Table: meta.Name, Rows: perProvider[p]}
		}
	}
	return msgs, nil
}

// reserveIDs allocates n consecutive row ids in meta's table and registers
// the range as in flight. Ids are never reused: a failed insert burns its
// reservation.
func (e *engine) reserveIDs(meta *tableMeta, n uint64) uint64 {
	e.insMu.Lock()
	defer e.insMu.Unlock()
	base := meta.nextID[e.g]
	meta.nextID[e.g] += n
	inf := e.inflight[meta.Name]
	if inf == nil {
		inf = make(map[uint64]uint64)
		e.inflight[meta.Name] = inf
	}
	inf[base] = n
	return base
}

// releaseIDs retires a reservation made by reserveIDs, acknowledged or not.
func (e *engine) releaseIDs(meta *tableMeta, base uint64) {
	e.insMu.Lock()
	delete(e.inflight[meta.Name], base)
	e.insMu.Unlock()
}

// stableWatermark returns the row-id bound below which every id belongs to
// a fully acknowledged insert: the smallest in-flight reservation, or the
// allocation frontier when no insert is in flight. Scans drop rows at or
// above it before comparing providers.
func (e *engine) stableWatermark(meta *tableMeta) uint64 {
	e.insMu.Lock()
	defer e.insMu.Unlock()
	w := meta.nextID[e.g]
	for base := range e.inflight[meta.Name] {
		if base < w {
			w = base
		}
	}
	return w
}

// shareBytesPerCell over-estimates the randomness one cell draws while
// encoding: K-1 field-polynomial coefficients of 8 bytes (K ≤ 4 in
// practice) or a 12-byte AEAD nonce for blobs.
const shareBytesPerCell = 16

// encodeRowsAt encodes full rows under explicit ids. Each value costs an
// OPP split (Degree keyed hashes, ≈1.2 µs at degree 3) plus a field-share
// split, so the row range is chunked across the worker pool;
// perProvider[i][r] is provider i's share of rows[r].
func (e *engine) encodeRowsAt(meta *tableMeta, ids []uint64, rows [][]Value) ([][]proto.Row, error) {
	perProvider := make([][]proto.Row, e.opts.N)
	for i := range perProvider {
		perProvider[i] = make([]proto.Row, len(rows))
	}
	err := parallelChunks(e.opts.ParallelWorkers, len(rows), func(start, end int) error {
		// One buffered randomness reader per worker: drawing polynomial
		// coefficients 8 bytes at a time costs a getrandom syscall per
		// cell otherwise, which serializes workers in the kernel. Size the
		// buffer to the chunk — a single-row INSERT needs tens of bytes,
		// and a 4 KiB refill would dwarf the statement's real entropy use.
		need := (end - start) * len(meta.Cols) * 2 * shareBytesPerCell
		if need > 4096 {
			need = 4096
		}
		enc := e.newRowEncoder(bufio.NewReaderSize(e.opts.Rand, need))
		for r := start; r < end; r++ {
			encoded, err := e.encodeRow(meta, ids[r], rows[r], enc)
			if err != nil {
				return err
			}
			for i := 0; i < e.opts.N; i++ {
				perProvider[i][r] = encoded[i]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return perProvider, nil
}

// rowEncoder is one worker's scratch for encodeRow: its buffered view of
// Options.Rand, the field-share splitter drawing from it, an
// order-preserving splitter per domain met so far, the order-preserving
// shares of the value in hand and each provider's slab.
type rowEncoder struct {
	rnd       io.Reader
	field     *secretshare.Splitter
	splitters map[*opp.Scheme]*opp.Splitter
	opp       []opp.Share
	slabs     [][]byte
}

func (e *engine) newRowEncoder(rnd io.Reader) *rowEncoder {
	return &rowEncoder{rnd: rnd, field: e.fieldSch.NewSplitter(rnd),
		splitters: make(map[*opp.Scheme]*opp.Splitter),
		opp:       make([]opp.Share, e.opts.N), slabs: make([][]byte, e.opts.N)}
}

// encodeRow encodes one row for all providers under a specific id: each
// provider's share cells cut from one slab, all providers' cell headers from
// one index — N + 2 allocations a row (plus a sealed blob's).
func (e *engine) encodeRow(meta *tableMeta, id uint64, vals []Value, enc *rowEncoder) ([]proto.Row, error) {
	cells, size := len(meta.Cols), 0
	for ci := range meta.Cols {
		if cm := &meta.Cols[ci]; cm.queryable() {
			cells, size = cells+1, size+cm.oppSch.Width()+fieldCellSize
		}
	}
	out := make([]proto.Row, e.opts.N)
	index := make([][]byte, len(out)*cells)
	for i := range out {
		out[i] = proto.Row{ID: id, Cells: index[i*cells : i*cells : (i+1)*cells]}
		enc.slabs[i] = make([]byte, 0, size)
	}
	for ci := range meta.Cols {
		cm := &meta.Cols[ci]
		v := vals[ci]
		if !cm.queryable() {
			cell, err := e.sealBlob(meta, v, enc.rnd)
			if err != nil {
				return nil, err
			}
			for i := range out {
				out[i].Cells = append(out[i].Cells, cell)
			}
			continue
		}
		u, err := cm.encode(v)
		if err != nil {
			return nil, err
		}
		sch := cm.oppSch
		sp := enc.splitters[sch]
		if sp == nil {
			sp = sch.NewSplitter()
			enc.splitters[sch] = sp
		}
		if err := sp.SplitInto(enc.opp, u); err != nil {
			return nil, err
		}
		ys, err := enc.field.Split(field.New(u))
		if err != nil {
			return nil, err
		}
		for i := range out {
			from := len(enc.slabs[i])
			slab := binary.BigEndian.AppendUint64(sch.AppendShare(enc.slabs[i], enc.opp[i]), ys[i].Uint64())
			mid := len(slab) - fieldCellSize
			out[i].Cells = append(out[i].Cells, slab[from:mid:mid], slab[mid:])
			enc.slabs[i] = slab
		}
	}
	return out, nil
}

// sealBlob encrypts a payload for private tables (AES-256-GCM with a random
// nonce) and passes it through for public ones. The identical ciphertext is
// replicated to every provider.
func (e *engine) sealBlob(meta *tableMeta, v Value, rnd io.Reader) ([]byte, error) {
	if v.Kind != KindBytes && v.Kind != KindString {
		return nil, fmt.Errorf("%w: blob column wants bytes, got %v", ErrTypeMismatch, v.Kind)
	}
	payload := v.B
	if v.Kind == KindString {
		payload = []byte(v.S)
	}
	if meta.Public {
		return payload, nil
	}
	nonce := make([]byte, e.aead.NonceSize())
	if _, err := io.ReadFull(rnd, nonce); err != nil {
		return nil, err
	}
	return append(nonce, e.aead.Seal(nil, nonce, payload, nil)...), nil
}

// openBlob inverts sealBlob.
func (e *engine) openBlob(meta *tableMeta, cell []byte) ([]byte, error) {
	if meta.Public {
		return cell, nil
	}
	ns := e.aead.NonceSize()
	if len(cell) < ns {
		return nil, fmt.Errorf("%w: blob cell too short", ErrVerification)
	}
	plain, err := e.aead.Open(nil, cell[:ns], cell[ns:], nil)
	if err != nil {
		return nil, fmt.Errorf("%w: blob authentication failed: %v", ErrVerification, err)
	}
	return plain, nil
}

// --- Lazy UPDATEs ---

// Flush pushes all buffered lazy updates to the providers. With none
// buffered it takes no statement lock.
func (c *Client) Flush() error {
	if c.PendingUpdates() == 0 {
		return nil
	}
	return c.scatter(c.allGroups(), true, nil, func(_ int, e *engine) error {
		for name := range e.pending {
			if err := e.flushTableLocked(name); err != nil {
				return err
			}
		}
		return nil
	})
}

// PendingUpdates reports how many lazy updates are buffered.
func (c *Client) PendingUpdates() int {
	total := 0
	for _, e := range c.groups {
		e.mu.RLock()
		for _, m := range e.pending {
			total += len(m)
		}
		e.mu.RUnlock()
	}
	return total
}

// flushTableLocked finishes one table's buffered lazy updates: the rows a
// lazy UPDATE's lowering stopped at are re-shared and sent. The caller holds
// the exclusive statement lock.
func (e *engine) flushTableLocked(name string) error {
	pend := e.pending[name]
	if len(pend) == 0 {
		return nil
	}
	meta, err := e.cat.table(name)
	if err != nil {
		return err
	}
	ids := make([]uint64, 0, len(pend))
	values := make([][]Value, 0, len(pend))
	for id, vals := range pend {
		ids = append(ids, id)
		values = append(values, vals)
	}
	msgs, err := e.requests(meta, writeUpdate, ids, values)
	if err != nil {
		return err
	}
	if _, err := e.callWrite(func(p int) proto.Message { return msgs[p] }); err != nil {
		return err
	}
	delete(e.pending, name)
	return nil
}
