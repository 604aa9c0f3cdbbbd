package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sssdb/internal/field"
	"sssdb/internal/opp"
	"sssdb/internal/proto"
	"sssdb/internal/secretshare"
	"sssdb/internal/sql"
)

// Exec parses and executes one SQL statement against the provider fleet.
// Plain scans (SELECT without aggregates, joins, or verification) hold a
// routed group's statement lock shared and run concurrently with each other
// and with INSERTs; INSERT also runs shared — it only appends rows under
// freshly reserved ids, and scans hide ids above the stable watermark (see
// scanTable) so a half-landed insert is never observed. UPDATE, DELETE, DDL,
// and SELECTs that combine per-provider computations without row ids to
// filter on (aggregates, joins, verified reads) hold it exclusively, so
// they observe — and present — either the pre- or post-statement share sets,
// never a mix.
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
	case *sql.Insert:
		return c.execInsert(s)
	case *sql.CreateTable:
		return c.execCreateTable(s)
	case *sql.DropTable:
		return c.execDropTable(s)
	case *sql.Update:
		return c.execUpdate(s)
	case *sql.Delete:
		return c.execDelete(s)
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

// lockForRead acquires the group's statement lock in shared mode and returns
// the matching unlock. A read that encounters buffered lazy updates may have
// to flush them — a mutation of both client and provider state — so when
// updates are pending it escalates to the exclusive lock. Pending updates
// can only be created under the exclusive lock, so the shared-mode check is
// stable for the duration of the statement.
func (e *engine) lockForRead() (unlock func()) {
	e.mu.RLock()
	if !e.anyPending() {
		return e.mu.RUnlock
	}
	e.mu.RUnlock()
	e.mu.Lock()
	return e.mu.Unlock
}

func (e *engine) anyPending() bool {
	for _, m := range e.pending {
		if len(m) > 0 {
			return true
		}
	}
	return false
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
	if _, err := c.cat.table(s.Name); err == nil {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, s.Name)
	}
	meta := newTableMeta(s.Name, s.Public, len(c.groups))
	seen := make(map[string]bool)
	for _, def := range s.Columns {
		if seen[def.Name] {
			return nil, fmt.Errorf("%w: duplicate column %q", ErrBadSchema, def.Name)
		}
		seen[def.Name] = true
		cm, err := c.buildColMeta(def)
		if err != nil {
			return nil, err
		}
		meta.Cols = append(meta.Cols, cm)
	}
	// Rows are only partitioned — and a shard key only means anything —
	// across more than one group.
	if col, ok := c.opts.ShardKeys[s.Name]; ok && len(c.groups) > 1 {
		if meta.shardCol = meta.colIndex(col); meta.shardCol < 0 {
			return nil, fmt.Errorf("%w: shard key %q is not a column of table %q", ErrBadSchema, col, s.Name)
		}
		if !meta.Cols[meta.shardCol].queryable() {
			return nil, fmt.Errorf("%w: shard key %q of table %q is a BLOB", ErrBadSchema, col, s.Name)
		}
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

// --- INSERT ---

// parseRows types the literal rows of an INSERT against the schema.
func parseRows(meta *tableMeta, lits [][]sql.Literal) ([][]Value, error) {
	rows := make([][]Value, 0, len(lits))
	for _, litRow := range lits {
		if len(litRow) != len(meta.Cols) {
			return nil, fmt.Errorf("%w: %d values for %d columns",
				ErrTypeMismatch, len(litRow), len(meta.Cols))
		}
		vals := make([]Value, len(litRow))
		for i, lit := range litRow {
			v, err := meta.Cols[i].parseValue(lit)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		rows = append(rows, vals)
	}
	return rows, nil
}

func (c *Client) execInsert(s *sql.Insert) (*Result, error) {
	meta, err := c.cat.table(s.Table)
	if err != nil {
		return nil, err
	}
	rows, err := parseRows(meta, s.Rows)
	if err != nil {
		return nil, err
	}
	return c.insertRows(meta, rows)
}

// InsertValues outsources pre-typed rows, bypassing SQL parsing; bulk
// loaders and the workload generators use it.
func (c *Client) InsertValues(table string, rows [][]Value) (*Result, error) {
	meta, err := c.cat.table(table)
	if err != nil {
		return nil, err
	}
	return c.insertRows(meta, rows)
}

// insertRows partitions typed rows onto their owning groups and runs the
// per-group inserts concurrently. Atomicity is per group: if one group fails
// its batch (which that group rolls back), batches committed by other groups
// stay committed, and the joined error reports which groups failed. (A Tx
// makes a multi-group write atomic.)
func (c *Client) insertRows(meta *tableMeta, rows [][]Value) (*Result, error) {
	targets, batches, err := c.partitionRows(meta, rows)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return &Result{}, nil
	}
	err = c.scatter(targets, false, []*tableMeta{meta}, func(_ int, e *engine) error {
		return e.insertValues(meta, batches[e.g])
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: uint64(len(rows))}, nil
}

// insertValues runs under the shared statement lock: it reserves a fresh
// id range, encodes, and distributes the batch while concurrent scans keep
// flowing. Until the reservation is released, scans treat the range as
// unstable and hide it (see stableWatermark), so no reader can catch the
// batch present on one provider and absent on another.
func (e *engine) insertValues(meta *tableMeta, rows [][]Value) error {
	base := e.reserveIDs(meta, uint64(len(rows)))
	defer e.releaseIDs(meta, base)
	ids := make([]uint64, len(rows))
	for r := range ids {
		ids[r] = base + uint64(r)
	}
	perProvider, err := e.encodeRowsAt(meta, ids, rows)
	if err != nil {
		return err
	}
	succeeded, err := e.callWrite(func(i int) proto.Message {
		return &proto.InsertRequest{Table: meta.Name, Rows: perProvider[i]}
	})
	if err != nil {
		// Best-effort compensation: providers that accepted the batch would
		// otherwise hold rows their peers lack, permanently forking the
		// share sets. Delete the batch from every provider it landed on, in
		// one round. A rollback that fails on transport is additionally
		// queued as a hint so the repair loop heals the fork once the
		// provider returns. The reservation is burned either way (ids are
		// never reused), so a retry starts from fresh ids.
		rollback := &proto.DeleteRequest{Table: meta.Name, RowIDs: ids}
		t := round(succeeded, e.deliver(func(int) proto.Message { return rollback }))
		for _, p := range t.unreached {
			e.hint(p, rollback)
		}
		if failed := errors.Join(t.rejection, t.outage); failed != nil {
			return errors.Join(err, fmt.Errorf("rollback on %w", failed))
		}
		return err
	}
	return nil
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
// OPP split (keyed-hash polynomial, microseconds) plus a field-share split,
// which dominates bulk-load wall time, so the row range is chunked across
// the worker pool; perProvider[i][r] is provider i's share of rows[r].
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
// Options.Rand, the field-share splitter drawing from it, the
// order-preserving shares of the value in hand and each provider's slab.
type rowEncoder struct {
	rnd   io.Reader
	field *secretshare.Splitter
	opp   []opp.Share
	slabs [][]byte
}

func (e *engine) newRowEncoder(rnd io.Reader) *rowEncoder {
	return &rowEncoder{rnd: rnd, field: e.fieldSch.NewSplitter(rnd),
		opp: make([]opp.Share, e.opts.N), slabs: make([][]byte, e.opts.N)}
}

// encodeRow encodes one row for all providers under a specific id: each
// provider's share cells cut from one slab, all providers' cell headers from
// one index — N + 2 allocations a row (plus a sealed blob's).
func (e *engine) encodeRow(meta *tableMeta, id uint64, vals []Value, enc *rowEncoder) ([]proto.Row, error) {
	cells, size := len(meta.Cols), 0
	for ci := range meta.Cols {
		if cm := &meta.Cols[ci]; cm.queryable() {
			cells, size = cells+1, size+cm.oppSch[e.g].Width()+fieldCellSize
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
		sch := cm.oppSch[e.g]
		if err := sch.SplitInto(enc.opp, u); err != nil {
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

// --- DELETE / UPDATE ---

// whereDML runs an UPDATE or DELETE in the groups its WHERE routes to,
// exclusively, and sums the rows each touched.
func (c *Client) whereDML(meta *tableMeta, where []sql.Predicate, fn func(e *engine) (uint64, error)) (*Result, error) {
	targets := c.routeGroups(meta, where)
	affected := make([]uint64, len(targets))
	err := c.scatter(targets, true, []*tableMeta{meta}, func(i int, e *engine) (err error) {
		affected[i], err = fn(e)
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, n := range affected {
		res.Affected += n
	}
	return res, nil
}

func (c *Client) execDelete(s *sql.Delete) (*Result, error) {
	meta, err := c.cat.table(s.Table)
	if err != nil {
		return nil, err
	}
	preds, err := compilePredicates(meta, s.Where, "")
	if err != nil {
		return nil, err
	}
	return c.whereDML(meta, s.Where, func(e *engine) (uint64, error) {
		ids, err := e.idsToDelete(meta, preds)
		if err != nil || len(ids) == 0 {
			return 0, err
		}
		_, err = e.callWrite(func(int) proto.Message {
			return &proto.DeleteRequest{Table: meta.Name, RowIDs: ids}
		})
		return uint64(len(ids)), err
	})
}

// idsToDelete finds the rows a DELETE removes; only the row ids are read.
func (e *engine) idsToDelete(meta *tableMeta, preds []compiledPred) ([]uint64, error) {
	if err := e.flushTableLocked(meta.Name); err != nil {
		return nil, err
	}
	scan, err := e.scanTable(meta, preds, e.readOpts(nil, 0, false))
	if err != nil {
		return nil, err
	}
	return scan.ids, nil
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

func (c *Client) execUpdate(s *sql.Update) (*Result, error) {
	meta, err := c.cat.table(s.Table)
	if err != nil {
		return nil, err
	}
	assigns, err := resolveAssigns(meta, s.Set)
	if err != nil {
		return nil, err
	}
	preds, err := compilePredicates(meta, s.Where, "")
	if err != nil {
		return nil, err
	}
	return c.whereDML(meta, s.Where, func(e *engine) (uint64, error) {
		scan, err := e.rowsToUpdate(meta, preds, assigns)
		if err != nil || len(scan.ids) == 0 {
			return 0, err
		}
		if e.opts.LazyUpdates {
			pend := e.pending[meta.Name]
			if pend == nil {
				pend = make(map[uint64][]Value)
				e.pending[meta.Name] = pend
			}
			for r, id := range scan.ids {
				pend[id] = scan.values[r]
			}
			return uint64(len(scan.ids)), nil
		}
		return uint64(len(scan.ids)), e.pushUpdates(meta, scan.ids, scan.values)
	})
}

// rowsToUpdate is the read half of the paper's update flow: retrieve the
// affected tuples, reconstruct at the client, apply the change (Sec. V-C).
// Whole rows are re-shared afterwards, so every column is read.
func (e *engine) rowsToUpdate(meta *tableMeta, preds []compiledPred, assigns []assign) (*scanResult, error) {
	scan, err := e.scanTable(meta, preds, e.readOpts(meta.allCols(), 0, false))
	if err != nil {
		return nil, err
	}
	for r := range scan.values {
		for _, a := range assigns {
			scan.values[r][a.ci] = a.val
		}
	}
	return scan, nil
}

// pushUpdates re-shares full rows and distributes them to every provider.
func (e *engine) pushUpdates(meta *tableMeta, ids []uint64, values [][]Value) error {
	perProvider, err := e.encodeRowsAt(meta, ids, values)
	if err != nil {
		return err
	}
	_, err = e.callWrite(func(i int) proto.Message {
		return &proto.UpdateRequest{Table: meta.Name, Rows: perProvider[i]}
	})
	return err
}

// Flush pushes all buffered lazy updates to the providers.
func (c *Client) Flush() error {
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

// flushTableLocked pushes one table's buffered lazy updates; the caller holds
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
	if err := e.pushUpdates(meta, ids, values); err != nil {
		return err
	}
	delete(e.pending, name)
	return nil
}
