package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"sssdb/internal/field"
	"sssdb/internal/proto"
	"sssdb/internal/sql"
)

// Exec parses and executes one SQL statement against the provider fleet.
// Plain scans (SELECT without aggregates, joins, or verification) and
// EXPLAIN hold the statement lock shared and run concurrently with each
// other and with INSERTs; INSERT also runs shared — it only appends rows
// under freshly reserved ids, and scans hide ids above the stable
// watermark (see scanTable) so a half-landed insert is never observed.
// UPDATE, DELETE, DDL, and SELECTs that combine per-provider computations
// without row ids to filter on (aggregates, joins, verified reads) hold
// the lock exclusively, so they observe — and present — either the pre- or
// post-statement share sets, never a mix.
func (c *Client) Exec(query string) (*Result, error) {
	if c.shards != nil {
		return c.shardExec(query)
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sql.Select:
		if !c.selectNeedsExclusive(s) {
			return c.execRead(func() (*Result, error) { return c.execSelect(s) })
		}
	case *sql.Explain:
		return c.execRead(func() (*Result, error) { return c.execExplain(s) })
	case *sql.Insert:
		c.mu.RLock()
		defer c.mu.RUnlock()
		return c.execInsert(s)
	case *sql.BeginTx, *sql.CommitTx, *sql.RollbackTx:
		// Transactions need a handle to buffer statements on: BEGIN maps to
		// Client.Begin, COMMIT/ROLLBACK to methods of the returned Tx (the
		// dasql REPL does this mapping for interactive sessions).
		return nil, fmt.Errorf("%w: %T outside a transaction handle (use Client.Begin and Tx.Exec)",
			ErrUnsupported, stmt)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch s := stmt.(type) {
	case *sql.Select:
		return c.execSelect(s)
	case *sql.CreateTable:
		return c.execCreateTable(s)
	case *sql.DropTable:
		return c.execDropTable(s)
	case *sql.Update:
		return c.execUpdate(s)
	case *sql.Delete:
		return c.execDelete(s)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupported, stmt)
	}
}

// selectNeedsExclusive reports whether a SELECT must serialize against
// writers. A plain scan tolerates concurrent INSERTs — the watermark hides
// partially landed rows by id — but provider-side aggregation, joins, and
// verified reads compare or linearly combine per-provider results that
// carry no ids to filter on, so they take the exclusive lock instead.
func (c *Client) selectNeedsExclusive(s *sql.Select) bool {
	if s.Verified || c.opts.Verified || s.GroupBy != nil || s.Join != nil {
		return true
	}
	for _, item := range s.Items {
		if item.Agg != sql.AggNone {
			return true
		}
	}
	return false
}

// execRead runs a read statement under the shared statement lock. A read
// that encounters buffered lazy updates may have to flush them — a mutation
// of both client and provider state — so when updates are pending the
// statement escalates to the exclusive lock. Pending updates can only be
// created under the exclusive lock, so the shared-mode check is stable for
// the duration of the statement.
func (c *Client) execRead(fn func() (*Result, error)) (*Result, error) {
	unlock := c.lockForRead()
	defer unlock()
	return fn()
}

// lockForRead acquires the statement lock in shared mode, escalating to
// exclusive when lazy updates are pending, and returns the matching unlock.
func (c *Client) lockForRead() (unlock func()) {
	c.mu.RLock()
	if !c.anyPending() {
		return c.mu.RUnlock
	}
	c.mu.RUnlock()
	c.mu.Lock()
	return c.mu.Unlock
}

func (c *Client) anyPending() bool {
	for _, m := range c.pending {
		if len(m) > 0 {
			return true
		}
	}
	return false
}

// --- DDL ---

func (c *Client) execCreateTable(s *sql.CreateTable) (*Result, error) {
	if _, exists := c.tables[s.Name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, s.Name)
	}
	meta := &tableMeta{Name: s.Name, Public: s.Public, NextID: 1}
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
	spec := meta.providerSpec()
	if _, err := c.callWrite(func(int) proto.Message {
		return &proto.CreateTableRequest{Spec: spec}
	}); err != nil {
		return nil, err
	}
	c.tables[s.Name] = meta
	return &Result{}, nil
}

func (c *Client) execDropTable(s *sql.DropTable) (*Result, error) {
	if _, err := c.table(s.Name); err != nil {
		return nil, err
	}
	if _, err := c.callWrite(func(int) proto.Message {
		return &proto.DropTableRequest{Table: s.Name}
	}); err != nil {
		return nil, err
	}
	delete(c.tables, s.Name)
	delete(c.pending, s.Name)
	c.insMu.Lock()
	delete(c.inflight, s.Name)
	c.insMu.Unlock()
	return &Result{}, nil
}

// --- INSERT ---

func (c *Client) execInsert(s *sql.Insert) (*Result, error) {
	meta, err := c.table(s.Table)
	if err != nil {
		return nil, err
	}
	rows := make([][]Value, 0, len(s.Rows))
	for _, litRow := range s.Rows {
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
	return c.insertValues(meta, rows)
}

// InsertValues outsources pre-typed rows, bypassing SQL parsing; bulk
// loaders and the workload generators use it.
func (c *Client) InsertValues(table string, rows [][]Value) (*Result, error) {
	if c.shards != nil {
		return c.shardInsertRows(table, rows)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	meta, err := c.table(table)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if len(row) != len(meta.Cols) {
			return nil, fmt.Errorf("%w: %d values for %d columns",
				ErrTypeMismatch, len(row), len(meta.Cols))
		}
	}
	return c.insertValues(meta, rows)
}

// insertValues runs under the shared statement lock: it reserves a fresh
// id range, encodes, and distributes the batch while concurrent scans keep
// flowing. Until the reservation is released, scans treat the range as
// unstable and hide it (see stableWatermark), so no reader can catch the
// batch present on one provider and absent on another.
func (c *Client) insertValues(meta *tableMeta, rows [][]Value) (*Result, error) {
	n := uint64(len(rows))
	if n == 0 {
		return &Result{}, nil
	}
	base := c.reserveIDs(meta, n)
	defer c.releaseIDs(meta, base)
	ids := make([]uint64, len(rows))
	for r := range ids {
		ids[r] = base + uint64(r)
	}
	perProvider, err := c.encodeRowsAt(meta, ids, rows)
	if err != nil {
		return nil, err
	}
	succeeded, err := c.callWrite(func(i int) proto.Message {
		return &proto.InsertRequest{Table: meta.Name, Rows: perProvider[i]}
	})
	if err != nil {
		// Best-effort compensation: providers that accepted the batch would
		// otherwise hold rows their peers lack, permanently forking the
		// share sets. Delete the batch from every provider it landed on —
		// all of them, not stopping at the first failed rollback, which
		// would leave the remaining providers forked. A rollback that fails
		// on transport is additionally queued as a hint so the repair loop
		// heals the fork once the provider returns. The reservation is
		// burned either way (ids are never reused), so a retry starts from
		// fresh ids.
		rollback := &proto.DeleteRequest{Table: meta.Name, RowIDs: ids}
		var rollbackErrs []error
		for _, p := range succeeded {
			_, derr := c.call(p, rollback, noDeadline)
			if derr == nil {
				continue
			}
			rollbackErrs = append(rollbackErrs,
				fmt.Errorf("rollback on provider %d also failed: %w", p, derr))
			var remote *proto.RemoteError
			if !errors.As(derr, &remote) {
				_ = c.hintMutation(p, rollback)
				c.markProvider(p, true)
				c.ensureRepairLoop()
			}
		}
		if len(rollbackErrs) > 0 {
			return nil, errors.Join(append([]error{err}, rollbackErrs...)...)
		}
		return nil, err
	}
	return &Result{Affected: n}, nil
}

// reserveIDs allocates n consecutive row ids in meta's table and registers
// the range as in flight. Ids are never reused: a failed insert burns its
// reservation.
func (c *Client) reserveIDs(meta *tableMeta, n uint64) uint64 {
	c.insMu.Lock()
	defer c.insMu.Unlock()
	base := meta.NextID
	meta.NextID += n
	inf := c.inflight[meta.Name]
	if inf == nil {
		inf = make(map[uint64]uint64)
		c.inflight[meta.Name] = inf
	}
	inf[base] = n
	return base
}

// releaseIDs retires a reservation made by reserveIDs, acknowledged or not.
func (c *Client) releaseIDs(meta *tableMeta, base uint64) {
	c.insMu.Lock()
	delete(c.inflight[meta.Name], base)
	c.insMu.Unlock()
}

// stableWatermark returns the row-id bound below which every id belongs to
// a fully acknowledged insert: the smallest in-flight reservation, or the
// allocation frontier when no insert is in flight. Scans drop rows at or
// above it before comparing providers.
func (c *Client) stableWatermark(meta *tableMeta) uint64 {
	c.insMu.Lock()
	defer c.insMu.Unlock()
	w := meta.NextID
	for base := range c.inflight[meta.Name] {
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
func (c *Client) encodeRowsAt(meta *tableMeta, ids []uint64, rows [][]Value) ([][]proto.Row, error) {
	perProvider := make([][]proto.Row, c.opts.N)
	for i := range perProvider {
		perProvider[i] = make([]proto.Row, len(rows))
	}
	err := parallelChunks(c.opts.ParallelWorkers, len(rows), func(start, end int) error {
		// One buffered randomness reader per worker: drawing polynomial
		// coefficients 8 bytes at a time costs a getrandom syscall per
		// cell otherwise, which serializes workers in the kernel. Size the
		// buffer to the chunk — a single-row INSERT needs tens of bytes,
		// and a 4 KiB refill would dwarf the statement's real entropy use.
		need := (end - start) * len(meta.Cols) * 2 * shareBytesPerCell
		if need > 4096 {
			need = 4096
		}
		rnd := bufio.NewReaderSize(c.opts.Rand, need)
		for r := start; r < end; r++ {
			encoded, err := c.encodeRow(meta, ids[r], rows[r], rnd)
			if err != nil {
				return err
			}
			for i := 0; i < c.opts.N; i++ {
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

// encodeRow encodes one row for all providers under a specific id, drawing
// share randomness from rnd (a per-worker buffered view of Options.Rand).
func (c *Client) encodeRow(meta *tableMeta, id uint64, vals []Value, rnd io.Reader) ([]proto.Row, error) {
	out := make([]proto.Row, c.opts.N)
	for i := range out {
		out[i] = proto.Row{ID: id}
	}
	for ci := range meta.Cols {
		cm := &meta.Cols[ci]
		v := vals[ci]
		if !cm.queryable() {
			cell, err := c.sealBlob(meta, v, rnd)
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
		oppShares, err := cm.oppSch.Split(u)
		if err != nil {
			return nil, err
		}
		fieldShares, err := c.fieldSch.Split(field.New(u), rnd)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i].Cells = append(out[i].Cells,
				oppShares[i].Bytes(), fieldCell(fieldShares[i].Y.Uint64()))
		}
	}
	return out, nil
}

// sealBlob encrypts a payload for private tables (AES-256-GCM with a random
// nonce) and passes it through for public ones. The identical ciphertext is
// replicated to every provider.
func (c *Client) sealBlob(meta *tableMeta, v Value, rnd io.Reader) ([]byte, error) {
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
	nonce := make([]byte, c.aead.NonceSize())
	if _, err := io.ReadFull(rnd, nonce); err != nil {
		return nil, err
	}
	return append(nonce, c.aead.Seal(nil, nonce, payload, nil)...), nil
}

// openBlob inverts sealBlob.
func (c *Client) openBlob(meta *tableMeta, cell []byte) ([]byte, error) {
	if meta.Public {
		return cell, nil
	}
	ns := c.aead.NonceSize()
	if len(cell) < ns {
		return nil, fmt.Errorf("%w: blob cell too short", ErrVerification)
	}
	plain, err := c.aead.Open(nil, cell[:ns], cell[ns:], nil)
	if err != nil {
		return nil, fmt.Errorf("%w: blob authentication failed: %v", ErrVerification, err)
	}
	return plain, nil
}

// --- DELETE ---

func (c *Client) execDelete(s *sql.Delete) (*Result, error) {
	meta, err := c.table(s.Table)
	if err != nil {
		return nil, err
	}
	if err := c.flushTableLocked(meta.Name); err != nil {
		return nil, err
	}
	preds, err := c.compilePredicates(meta, s.Where, "")
	if err != nil {
		return nil, err
	}
	// Only the row ids are read.
	scan, err := c.scanTable(meta, preds, c.readOpts(nil, 0, false))
	if err != nil {
		return nil, err
	}
	if len(scan.ids) == 0 {
		return &Result{}, nil
	}
	if _, err := c.callWrite(func(int) proto.Message {
		return &proto.DeleteRequest{Table: meta.Name, RowIDs: scan.ids}
	}); err != nil {
		return nil, err
	}
	return &Result{Affected: uint64(len(scan.ids))}, nil
}

// --- UPDATE ---

func (c *Client) execUpdate(s *sql.Update) (*Result, error) {
	meta, err := c.table(s.Table)
	if err != nil {
		return nil, err
	}
	// Resolve assignments up front.
	type assign struct {
		ci  int
		val Value
	}
	var assigns []assign
	for _, a := range s.Set {
		cm, err := meta.col(a.Col)
		if err != nil {
			return nil, err
		}
		v, err := cm.parseValue(a.Value)
		if err != nil {
			return nil, err
		}
		assigns = append(assigns, assign{ci: meta.colIndex(a.Col), val: v})
	}
	preds, err := c.compilePredicates(meta, s.Where, "")
	if err != nil {
		return nil, err
	}
	// The paper's update flow: retrieve the affected tuples, reconstruct at
	// the client, apply the change, re-share, redistribute (Sec. V-C). Whole
	// rows are re-shared, so every column is read.
	scan, err := c.scanTable(meta, preds, c.readOpts(meta.allCols(), 0, false))
	if err != nil {
		return nil, err
	}
	if len(scan.ids) == 0 {
		return &Result{}, nil
	}
	for r := range scan.values {
		for _, a := range assigns {
			scan.values[r][a.ci] = a.val
		}
	}
	if c.opts.LazyUpdates {
		pend := c.pending[meta.Name]
		if pend == nil {
			pend = make(map[uint64][]Value)
			c.pending[meta.Name] = pend
		}
		for r, id := range scan.ids {
			pend[id] = scan.values[r]
		}
		return &Result{Affected: uint64(len(scan.ids))}, nil
	}
	return c.pushUpdates(meta, scan.ids, scan.values)
}

// pushUpdates re-shares full rows and distributes them to every provider.
func (c *Client) pushUpdates(meta *tableMeta, ids []uint64, values [][]Value) (*Result, error) {
	perProvider, err := c.encodeRowsAt(meta, ids, values)
	if err != nil {
		return nil, err
	}
	if _, err := c.callWrite(func(i int) proto.Message {
		return &proto.UpdateRequest{Table: meta.Name, Rows: perProvider[i]}
	}); err != nil {
		return nil, err
	}
	return &Result{Affected: uint64(len(ids))}, nil
}

// Flush pushes all buffered lazy updates to the providers.
func (c *Client) Flush() error {
	if c.shards != nil {
		return c.shardFlush()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for name := range c.pending {
		if err := c.flushTableLocked(name); err != nil {
			return err
		}
	}
	return nil
}

// PendingUpdates reports how many lazy updates are buffered.
func (c *Client) PendingUpdates() int {
	if c.shards != nil {
		total := 0
		for _, sub := range c.shards {
			total += sub.PendingUpdates()
		}
		return total
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, m := range c.pending {
		total += len(m)
	}
	return total
}

func (c *Client) flushTableLocked(name string) error {
	pend := c.pending[name]
	if len(pend) == 0 {
		return nil
	}
	meta, err := c.table(name)
	if err != nil {
		return err
	}
	ids := make([]uint64, 0, len(pend))
	values := make([][]Value, 0, len(pend))
	for id, vals := range pend {
		ids = append(ids, id)
		values = append(values, vals)
	}
	if _, err := c.pushUpdates(meta, ids, values); err != nil {
		return err
	}
	delete(c.pending, name)
	return nil
}
