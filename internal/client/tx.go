package client

// Multi-statement transactions: the client is the transaction coordinator
// (the paper's trust model — providers never talk to each other), running a
// client-coordinated two-phase commit over the provider fleet.
//
// A Tx buffers DML locally: INSERT captures typed rows, UPDATE and DELETE
// capture the parsed statement and are evaluated at commit time against the
// pre-transaction state. Commit, under the exclusive statement lock,
// lowers the buffered statements into per-provider op batches, appends them
// plus a commit-intent record to the client's WAL-backed transaction log
// (the same CRC framing as the hint journals), PREPAREs the batches at
// every provider (in-memory staging, validated), and — once a write quorum
// has acknowledged — appends the commit record (the commit point) and tells
// the providers to apply. A provider that misses the commit round is healed
// by replaying the raw ops through its hint journal, exactly like a missed
// single-statement write.
//
// Recovery is presumed-abort: a client restart replays the transaction log
// and re-drives only transactions whose commit record made it to the log;
// an in-doubt prepare (intent record without a commit record) is aborted at
// the providers and never replayed.
//
// Reads inside a Tx get snapshot isolation over committed state: Begin
// captures each table's stable insert watermark as the transaction's
// snapshot epoch, and every scan the Tx runs caps its watermark at that
// epoch, so rows committed after Begin are invisible. The Tx does NOT see
// its own buffered writes (no intra-transaction read-your-writes), and
// tables created after Begin read as empty.

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"sssdb/internal/proto"
	"sssdb/internal/sql"
	"sssdb/internal/wal"
)

// Transaction errors.
var (
	// ErrTxDone rejects operations on a committed or rolled-back Tx.
	ErrTxDone = errors.New("client: transaction already finished")
	// ErrTxAborted reports a commit that could not reach its write quorum
	// (or was rejected by a provider) and was rolled back everywhere.
	ErrTxAborted = errors.New("client: transaction aborted")
)

// txLogName is the transaction log file under Options.HintDir.
const txLogName = "txlog.wal"

// noEpoch disables snapshot capping (non-transactional scans).
const noEpoch = ^uint64(0)

// txStmt is one buffered DML statement, exactly one field set.
type txStmt struct {
	insTable string
	insRows  [][]Value
	update   *sql.Update
	delete   *sql.Delete
}

// Tx is a multi-statement transaction handle. A Tx is not safe for
// concurrent use; reads run against the Begin-time snapshot, writes buffer
// until Commit. Aggregates, joins, GROUP BY, ORDER BY, and verified reads
// are not available inside a transaction (they combine per-provider state
// that carries no row ids to snapshot-filter on).
type Tx struct {
	c  *Client
	id uint64
	// epochs maps table -> per-group snapshot watermark captured at Begin
	// (one entry per provider group; a plain client has exactly one).
	epochs map[string][]uint64
	stmts  []txStmt
	done   bool
}

// newTxID draws a random transaction id. Ids must stay unique across client
// restarts (recovery may re-send commits for old ids), so this always uses
// crypto/rand, never the caller-supplied share randomness.
func newTxID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("client: tx id randomness unavailable: " + err.Error())
	}
	return binary.BigEndian.Uint64(b[:])
}

// Begin starts a transaction, capturing the snapshot epoch of every table
// in the catalog.
func (c *Client) Begin() (*Tx, error) {
	tx := &Tx{c: c, id: newTxID(), epochs: make(map[string][]uint64)}
	subs := c.shards
	if subs == nil {
		subs = []*Client{c}
	}
	for g, sub := range subs {
		sub.mu.RLock()
		for name, meta := range sub.tables {
			es := tx.epochs[name]
			if es == nil {
				es = make([]uint64, len(subs))
				tx.epochs[name] = es
			}
			es[g] = sub.stableWatermark(meta)
		}
		sub.mu.RUnlock()
	}
	return tx, nil
}

// ID returns the transaction id (diagnostics and tests).
func (tx *Tx) ID() uint64 { return tx.id }

// Done reports whether the transaction has finished (committed, rolled
// back, or aborted) and can no longer accept statements.
func (tx *Tx) Done() bool { return tx.done }

// epochAt returns the snapshot epoch of table in group g; tables unknown at
// Begin read as empty (epoch 0 hides every row).
func (tx *Tx) epochAt(table string, g int) uint64 {
	es := tx.epochs[table]
	if es == nil {
		return 0
	}
	return es[g]
}

// Exec runs one SQL statement inside the transaction: SELECTs read the
// Begin-time snapshot immediately; INSERT/UPDATE/DELETE buffer until
// Commit (their Result reports zero affected rows — the count is unknown
// until commit). COMMIT and ROLLBACK finish the transaction. DDL is not
// transactional.
func (tx *Tx) Exec(query string) (*Result, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sql.Select:
		return tx.execSelect(s)
	case *sql.Insert:
		return tx.bufferInsert(s)
	case *sql.Update:
		tx.stmts = append(tx.stmts, txStmt{update: s})
		return &Result{}, nil
	case *sql.Delete:
		tx.stmts = append(tx.stmts, txStmt{delete: s})
		return &Result{}, nil
	case *sql.CommitTx:
		return &Result{}, tx.Commit()
	case *sql.RollbackTx:
		return &Result{}, tx.Rollback()
	case *sql.BeginTx:
		return nil, fmt.Errorf("%w: nested BEGIN", ErrUnsupported)
	default:
		return nil, fmt.Errorf("%w: %T inside a transaction", ErrUnsupported, stmt)
	}
}

// InsertValues buffers pre-typed rows (the bulk-load form of INSERT).
func (tx *Tx) InsertValues(table string, rows [][]Value) (*Result, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	meta, err := tx.tableMeta(table)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if len(row) != len(meta.Cols) {
			return nil, fmt.Errorf("%w: %d values for %d columns",
				ErrTypeMismatch, len(row), len(meta.Cols))
		}
	}
	buf := make([][]Value, len(rows))
	for i, row := range rows {
		buf[i] = append([]Value(nil), row...)
	}
	tx.stmts = append(tx.stmts, txStmt{insTable: table, insRows: buf})
	return &Result{}, nil
}

// tableMeta resolves a table on the coordinator (group 0's schema on a
// router; schemas are identical across groups by construction).
func (tx *Tx) tableMeta(table string) (*tableMeta, error) {
	c := tx.c
	if c.shards != nil {
		meta, _, err := c.shardTable(table)
		return meta, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.table(table)
}

func (tx *Tx) bufferInsert(s *sql.Insert) (*Result, error) {
	meta, err := tx.tableMeta(s.Table)
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
	tx.stmts = append(tx.stmts, txStmt{insTable: s.Table, insRows: rows})
	return &Result{}, nil
}

// execSelect runs a snapshot read. Only plain scans (projection, WHERE,
// LIMIT) are supported inside a transaction.
func (tx *Tx) execSelect(s *sql.Select) (*Result, error) {
	if s.Verified || s.Join != nil || s.GroupBy != nil || s.OrderBy != nil {
		return nil, fmt.Errorf("%w: only plain scans are available inside a transaction", ErrUnsupported)
	}
	for _, item := range s.Items {
		if item.Agg != sql.AggNone {
			return nil, fmt.Errorf("%w: aggregates inside a transaction", ErrUnsupported)
		}
	}
	c := tx.c
	if c.shards != nil {
		return tx.shardSelect(s)
	}
	unlock := c.lockForRead()
	defer unlock()
	meta, err := c.table(s.Table)
	if err != nil {
		return nil, err
	}
	preds, err := c.compilePredicates(meta, s.Where, "")
	if err != nil {
		return nil, err
	}
	cols, idx, err := selectColumns(meta, s.Items)
	if err != nil {
		return nil, err
	}
	o := c.readOpts(idx, s.Limit, false)
	o.epoch = tx.epochAt(s.Table, 0)
	res, err := c.scanTable(meta, preds, o)
	if err != nil {
		return nil, err
	}
	return projectScan(cols, idx, res), nil
}

// shardSelect is the router's snapshot read: fan the scan over the routed
// groups, each capped at its own Begin-time epoch, and concatenate.
func (tx *Tx) shardSelect(s *sql.Select) (*Result, error) {
	c := tx.c
	meta, info, err := c.shardTable(s.Table)
	if err != nil {
		return nil, err
	}
	cols, idx, err := selectColumns(meta, s.Items)
	if err != nil {
		return nil, err
	}
	targets := c.routeGroups(meta, info, s.Where)
	scans := make([]*scanResult, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, g := range targets {
		wg.Add(1)
		go func(i, g int) {
			defer wg.Done()
			scan, err := c.shards[g].gatherScan(s.Table, s.Where, idx, false, tx.epochAt(s.Table, g))
			if err != nil {
				errs[i] = fmt.Errorf("shard group %d: %w", g, err)
				return
			}
			scans[i] = scan
		}(i, g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	merged := &scanResult{}
	for _, scan := range scans {
		merged.ids = append(merged.ids, scan.ids...)
		merged.values = append(merged.values, scan.values...)
	}
	if s.Limit > 0 && uint64(len(merged.ids)) > s.Limit {
		merged.ids = merged.ids[:s.Limit]
		merged.values = merged.values[:s.Limit]
	}
	return projectScan(cols, idx, merged), nil
}

// Rollback discards the buffered statements. Nothing has reached a provider
// yet, so there is nothing to compensate.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.stmts = nil
	return nil
}

// Commit runs the two-phase commit. On success every buffered statement is
// durable at a write quorum of every involved provider group; on error the
// transaction applied nowhere (prepared providers were told to abort).
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	if len(tx.stmts) == 0 {
		return nil
	}
	c := tx.c
	if c.shards != nil {
		return c.shardCommitTx(tx)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	targets, release, err := c.buildTxOps(tx.stmts)
	if release != nil {
		defer release()
	}
	if err != nil {
		return err
	}
	return c.txRun2PC(tx.id, targets)
}

// txTarget is one provider's share of a transaction: the sub-client that
// owns the connection, the provider index within it, the global index
// recorded in the transaction log (group*N + provider on a router), and the
// op batch in statement order.
type txTarget struct {
	sub    *Client
	prov   int
	global uint32
	ops    []proto.Message
}

// buildTxOps lowers buffered statements onto per-provider op batches for a
// single-group client. Caller holds the exclusive statement lock. The
// returned release retires the insert id reservations (ids are burned
// whether or not the commit succeeds, like a failed single-statement
// insert); callers must run it after the 2PC finishes so scans mask the new
// ids until every provider's fate is settled (applied, aborted, or hinted).
func (c *Client) buildTxOps(stmts []txStmt) ([]txTarget, func(), error) {
	targets := make([]txTarget, c.opts.N)
	for i := range targets {
		targets[i] = txTarget{sub: c, prov: i, global: uint32(i)}
	}
	var releases []func()
	release := func() {
		for _, f := range releases {
			f()
		}
	}
	addOp := func(build func(i int) proto.Message) {
		for i := range targets {
			targets[i].ops = append(targets[i].ops, build(i))
		}
	}
	for _, st := range stmts {
		switch {
		case st.insRows != nil:
			meta, err := c.table(st.insTable)
			if err != nil {
				return nil, release, err
			}
			perProvider, _, rel, err := c.encodeInsert(meta, st.insRows)
			if rel != nil {
				releases = append(releases, rel)
			}
			if err != nil {
				return nil, release, err
			}
			addOp(func(i int) proto.Message {
				return &proto.InsertRequest{Table: meta.Name, Rows: perProvider[i]}
			})
		case st.update != nil:
			meta, perProvider, empty, err := c.evalTxUpdate(st.update)
			if err != nil {
				return nil, release, err
			}
			if empty {
				continue
			}
			addOp(func(i int) proto.Message {
				return &proto.UpdateRequest{Table: meta.Name, Rows: perProvider[i]}
			})
		case st.delete != nil:
			meta, ids, err := c.evalTxDelete(st.delete)
			if err != nil {
				return nil, release, err
			}
			if len(ids) == 0 {
				continue
			}
			addOp(func(int) proto.Message {
				return &proto.DeleteRequest{Table: meta.Name, RowIDs: ids}
			})
		}
	}
	if len(targets[0].ops) == 0 {
		return nil, release, nil
	}
	return targets, release, nil
}

// encodeInsert reserves ids and encodes rows (the share-encoding half of
// insertValues, without the distribution).
func (c *Client) encodeInsert(meta *tableMeta, rows [][]Value) ([][]proto.Row, []uint64, func(), error) {
	for _, row := range rows {
		if len(row) != len(meta.Cols) {
			return nil, nil, nil, fmt.Errorf("%w: %d values for %d columns",
				ErrTypeMismatch, len(row), len(meta.Cols))
		}
	}
	n := uint64(len(rows))
	base := c.reserveIDs(meta, n)
	rel := func() { c.releaseIDs(meta, base) }
	ids := make([]uint64, len(rows))
	for r := range ids {
		ids[r] = base + uint64(r)
	}
	perProvider, err := c.encodeRowsAt(meta, ids, rows)
	if err != nil {
		return nil, nil, rel, err
	}
	return perProvider, ids, rel, nil
}

// evalTxUpdate evaluates a buffered UPDATE against the current (pre-tx)
// state under the exclusive lock: scan, assign, re-encode. Mirrors
// execUpdate minus the distribution.
func (c *Client) evalTxUpdate(s *sql.Update) (*tableMeta, [][]proto.Row, bool, error) {
	meta, err := c.table(s.Table)
	if err != nil {
		return nil, nil, false, err
	}
	if err := c.flushTableLocked(meta.Name); err != nil {
		return nil, nil, false, err
	}
	type assign struct {
		ci  int
		val Value
	}
	var assigns []assign
	for _, a := range s.Set {
		cm, err := meta.col(a.Col)
		if err != nil {
			return nil, nil, false, err
		}
		v, err := cm.parseValue(a.Value)
		if err != nil {
			return nil, nil, false, err
		}
		assigns = append(assigns, assign{ci: meta.colIndex(a.Col), val: v})
	}
	preds, err := c.compilePredicates(meta, s.Where, "")
	if err != nil {
		return nil, nil, false, err
	}
	scan, err := c.scanTable(meta, preds, c.readOpts(meta.allCols(), 0, false))
	if err != nil {
		return nil, nil, false, err
	}
	if len(scan.ids) == 0 {
		return meta, nil, true, nil
	}
	for r := range scan.values {
		for _, a := range assigns {
			scan.values[r][a.ci] = a.val
		}
	}
	perProvider, err := c.encodeRowsAt(meta, scan.ids, scan.values)
	if err != nil {
		return nil, nil, false, err
	}
	return meta, perProvider, false, nil
}

// evalTxDelete evaluates a buffered DELETE against the current state.
func (c *Client) evalTxDelete(s *sql.Delete) (*tableMeta, []uint64, error) {
	meta, err := c.table(s.Table)
	if err != nil {
		return nil, nil, err
	}
	if err := c.flushTableLocked(meta.Name); err != nil {
		return nil, nil, err
	}
	preds, err := c.compilePredicates(meta, s.Where, "")
	if err != nil {
		return nil, nil, err
	}
	scan, err := c.scanTable(meta, preds, c.readOpts(nil, 0, false))
	if err != nil {
		return nil, nil, err
	}
	return meta, scan.ids, nil
}

// txStage is the crash-injection failpoint: tests install txHook to
// simulate the client dying between 2PC stages ("intent", "prepared",
// "committed"). A hook error aborts the commit path immediately with no
// compensation — exactly what a crash would leave behind.
func (c *Client) txStage(stage string) error {
	if h := c.txHook; h != nil {
		return h(stage)
	}
	return nil
}

// logTxRecord appends one encoded record to the transaction log (no-op
// without HintDir).
func (c *Client) logTxRecord(msg proto.Message) error {
	if c.txLog == nil {
		return nil
	}
	return c.txLog.Append(proto.Encode(msg))
}

func (c *Client) syncTxLog() error {
	if c.txLog == nil {
		return nil
	}
	return c.txLog.Sync()
}

// txRun2PC drives the two-phase commit over the given targets. The caller
// holds whatever statement locks make the op batches stable; c is the
// coordinator (it owns the transaction log and the failpoint hook). Targets
// with empty op batches are skipped. Quorum is per provider group: every
// involved group must collect Options.WriteQuorum prepare acks.
func (c *Client) txRun2PC(txid uint64, targets []txTarget) error {
	live := targets[:0:0]
	for _, t := range targets {
		if len(t.ops) > 0 {
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		return nil
	}

	// Phase 0: make the transaction's ops and the intent durable in the
	// client's log before anything leaves for a provider. Recovery treats
	// intent-without-commit as presumed-abort, so a crash at any point up to
	// the commit record undoes the transaction.
	for _, t := range live {
		raw := make([][]byte, len(t.ops))
		for i, op := range t.ops {
			raw[i] = proto.Encode(op)
		}
		if err := c.logTxRecord(&proto.TxOpsRecord{TxID: txid, Provider: t.global, Ops: raw}); err != nil {
			return fmt.Errorf("client: tx log: %w", err)
		}
	}
	if err := c.logTxRecord(&proto.TxMarkRecord{TxID: txid, State: proto.TxStateIntent}); err != nil {
		return fmt.Errorf("client: tx log: %w", err)
	}
	if err := c.syncTxLog(); err != nil {
		return fmt.Errorf("client: tx log: %w", err)
	}
	if err := c.txStage("intent"); err != nil {
		return err
	}

	// Phase 1: prepare. Providers already lagging are skipped — the
	// transaction's ops must queue behind their earlier hints — and get the
	// raw ops hinted after the commit decision.
	var prepTargets, lagTargets []txTarget
	for _, t := range live {
		if t.sub.isLagging(t.prov) {
			lagTargets = append(lagTargets, t)
		} else {
			prepTargets = append(prepTargets, t)
		}
	}
	type prepRes struct {
		t   txTarget
		err error
	}
	ch := make(chan prepRes, len(prepTargets))
	for _, t := range prepTargets {
		go func(t txTarget) {
			raw := make([][]byte, len(t.ops))
			for i, op := range t.ops {
				raw[i] = proto.Encode(op)
			}
			_, err := t.sub.call(t.prov, &proto.TxPrepareRequest{TxID: txid, Ops: raw}, noDeadline)
			ch <- prepRes{t: t, err: err}
		}(t)
	}
	var acked, unreached []txTarget
	var hard, soft []error
	for range prepTargets {
		r := <-ch
		if r.err == nil {
			r.t.sub.markProvider(r.t.prov, false)
			acked = append(acked, r.t)
			continue
		}
		var remote *proto.RemoteError
		if errors.As(r.err, &remote) {
			hard = append(hard, fmt.Errorf("provider %d: %w", r.t.global, r.err))
			continue
		}
		r.t.sub.markProvider(r.t.prov, true)
		unreached = append(unreached, r.t)
		soft = append(soft, fmt.Errorf("provider %d: %w", r.t.global, r.err))
	}
	abort := func(cause error) error {
		var wg sync.WaitGroup
		for _, t := range acked {
			wg.Add(1)
			go func(t txTarget) {
				defer wg.Done()
				_, _ = t.sub.call(t.prov, &proto.TxAbortRequest{TxID: txid}, noDeadline)
			}(t)
		}
		wg.Wait()
		_ = c.logTxRecord(&proto.TxMarkRecord{TxID: txid, State: proto.TxStateAborted})
		_ = c.logTxRecord(&proto.TxMarkRecord{TxID: txid, State: proto.TxStateResolved})
		_ = c.syncTxLog()
		return fmt.Errorf("%w: %v", ErrTxAborted, cause)
	}
	if len(hard) > 0 {
		return abort(fmt.Errorf("prepare rejected: %w", errors.Join(hard...)))
	}
	// Per-group quorum: each involved group needs WriteQuorum acks.
	ackedBySub := make(map[*Client]int)
	involved := make(map[*Client]bool)
	for _, t := range live {
		involved[t.sub] = true
	}
	for _, t := range acked {
		ackedBySub[t.sub]++
	}
	for sub := range involved {
		if ackedBySub[sub] < sub.opts.WriteQuorum {
			return abort(fmt.Errorf("%w: %d prepare acks of quorum %d (%v)",
				ErrNotEnough, ackedBySub[sub], sub.opts.WriteQuorum, errors.Join(soft...)))
		}
	}
	if err := c.txStage("prepared"); err != nil {
		return err
	}

	// Commit point: the commit record is durable before any provider is
	// told to apply. A crash after this line replays the commit on restart.
	if err := c.logTxRecord(&proto.TxMarkRecord{TxID: txid, State: proto.TxStateCommitted}); err != nil {
		return abort(fmt.Errorf("client: tx log: %w", err))
	}
	if err := c.syncTxLog(); err != nil {
		return abort(fmt.Errorf("client: tx log: %w", err))
	}
	if err := c.txStage("committed"); err != nil {
		return err
	}

	// Phase 2: apply. Failures here no longer fail the transaction — the
	// decision is made — they queue the raw ops as hints so the repair loop
	// heals the provider, exactly like a missed single-statement write.
	hintOps := func(t txTarget) {
		for _, op := range t.ops {
			_ = t.sub.hintMutation(t.prov, op)
		}
		t.sub.ensureRepairLoop()
		t.sub.kickRepair()
	}
	var wg sync.WaitGroup
	var cm sync.Mutex
	var commitFailed []txTarget
	for _, t := range acked {
		wg.Add(1)
		go func(t txTarget) {
			defer wg.Done()
			_, err := t.sub.call(t.prov, &proto.TxCommitRequest{TxID: txid}, noDeadline)
			if err == nil {
				return
			}
			var remote *proto.RemoteError
			if !errors.As(err, &remote) {
				t.sub.markProvider(t.prov, true)
			}
			cm.Lock()
			commitFailed = append(commitFailed, t)
			cm.Unlock()
		}(t)
	}
	wg.Wait()
	for _, t := range commitFailed {
		hintOps(t)
	}
	for _, t := range unreached {
		hintOps(t)
	}
	for _, t := range lagTargets {
		hintOps(t)
	}
	_ = c.logTxRecord(&proto.TxMarkRecord{TxID: txid, State: proto.TxStateResolved})
	_ = c.syncTxLog()
	return nil
}

// shardCommitTx is the router's commit: lock every group (in group order,
// so concurrent commits cannot deadlock), lower each statement onto the
// owning groups, and run one 2PC across every involved provider of every
// involved group — which is what finally makes a routed multi-group write
// atomic instead of per-group.
func (c *Client) shardCommitTx(tx *Tx) error {
	for _, sub := range c.shards {
		sub.mu.Lock()
	}
	defer func() {
		for _, sub := range c.shards {
			sub.mu.Unlock()
		}
	}()
	n := c.opts.N
	targets := make([]txTarget, len(c.shards)*n)
	for g, sub := range c.shards {
		for i := 0; i < n; i++ {
			targets[g*n+i] = txTarget{sub: sub, prov: i, global: uint32(g*n + i)}
		}
	}
	var releases []func()
	release := func() {
		for _, f := range releases {
			f()
		}
	}
	defer release()
	addOp := func(g int, build func(i int) proto.Message) {
		for i := 0; i < n; i++ {
			targets[g*n+i].ops = append(targets[g*n+i].ops, build(i))
		}
	}
	for _, st := range tx.stmts {
		switch {
		case st.insRows != nil:
			meta, info, err := c.shardTableLocked(st.insTable)
			if err != nil {
				return err
			}
			batches, err := c.partitionRows(meta, info, st.insRows)
			if err != nil {
				return err
			}
			for g, batch := range batches {
				if len(batch) == 0 {
					continue
				}
				sub := c.shards[g]
				subMeta, err := sub.table(st.insTable)
				if err != nil {
					return err
				}
				perProvider, _, rel, err := sub.encodeInsert(subMeta, batch)
				if rel != nil {
					releases = append(releases, rel)
				}
				if err != nil {
					return err
				}
				addOp(g, func(i int) proto.Message {
					return &proto.InsertRequest{Table: subMeta.Name, Rows: perProvider[i]}
				})
			}
		case st.update != nil:
			meta, info, err := c.shardTableLocked(st.update.Table)
			if err != nil {
				return err
			}
			if info.column != "" {
				for _, a := range st.update.Set {
					if a.Col == info.column {
						return fmt.Errorf("%w: UPDATE of shard key %q (delete and re-insert instead)",
							ErrUnsupported, a.Col)
					}
				}
			}
			for _, g := range c.routeGroups(meta, info, st.update.Where) {
				sub := c.shards[g]
				subMeta, perProvider, empty, err := sub.evalTxUpdate(st.update)
				if err != nil {
					return err
				}
				if empty {
					continue
				}
				addOp(g, func(i int) proto.Message {
					return &proto.UpdateRequest{Table: subMeta.Name, Rows: perProvider[i]}
				})
			}
		case st.delete != nil:
			meta, info, err := c.shardTableLocked(st.delete.Table)
			if err != nil {
				return err
			}
			for _, g := range c.routeGroups(meta, info, st.delete.Where) {
				sub := c.shards[g]
				subMeta, ids, err := sub.evalTxDelete(st.delete)
				if err != nil {
					return err
				}
				if len(ids) == 0 {
					continue
				}
				addOp(g, func(int) proto.Message {
					return &proto.DeleteRequest{Table: subMeta.Name, RowIDs: ids}
				})
			}
		}
	}
	return c.txRun2PC(tx.id, targets)
}

// shardTableLocked is shardTable for callers already holding every group's
// statement lock exclusively (shardCommitTx): group 0's table map is stable
// under that lock, so taking its RLock again — which would self-deadlock on
// the held write lock — is neither needed nor allowed.
func (c *Client) shardTableLocked(name string) (*tableMeta, *shardInfo, error) {
	c.shardMu.Lock()
	info := c.shardMap[name]
	c.shardMu.Unlock()
	if info == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	meta := c.shards[0].tables[name]
	if meta == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return meta, info, nil
}

// partitionRows splits typed rows onto their owning groups (shard-key hash
// or fresh insert sequence numbers). Caller must hold no shardMu.
func (c *Client) partitionRows(meta *tableMeta, info *shardInfo, rows [][]Value) ([][][]Value, error) {
	for _, row := range rows {
		if len(row) != len(meta.Cols) {
			return nil, fmt.Errorf("%w: %d values for %d columns",
				ErrTypeMismatch, len(row), len(meta.Cols))
		}
	}
	batches := make([][][]Value, len(c.shards))
	if info.column != "" {
		cm := &meta.Cols[info.ci]
		for _, row := range rows {
			enc, err := cm.encode(row[info.ci])
			if err != nil {
				return nil, err
			}
			g := c.groupForHash(enc)
			batches[g] = append(batches[g], row)
		}
		return batches, nil
	}
	c.shardMu.Lock()
	base := info.nextSeq
	info.nextSeq += uint64(len(rows))
	c.shardMu.Unlock()
	for i, row := range rows {
		g := c.groupForHash(base + uint64(i))
		batches[g] = append(batches[g], row)
	}
	return batches, nil
}

// --- Transaction log recovery ---

// openTxLog replays and reopens the transaction log, re-driving committed
// transactions and presumed-aborting in-doubt ones. Called from New (and
// from NewSharded on the router) after the hint journals are open, so
// recovery hints land in durable journals.
func (c *Client) openTxLog() error {
	if c.opts.HintDir == "" {
		return nil
	}
	path := filepath.Join(c.opts.HintDir, txLogName)
	type txState struct {
		ops      map[uint32][][]byte
		order    []uint32
		state    uint8
		resolved bool
	}
	txs := make(map[uint64]*txState)
	var order []uint64
	if err := wal.Replay(path, func(rec []byte) error {
		msg, err := proto.Decode(rec)
		if err != nil {
			return fmt.Errorf("client: decoding tx log record: %w", err)
		}
		switch m := msg.(type) {
		case *proto.TxOpsRecord:
			st := txs[m.TxID]
			if st == nil {
				st = &txState{ops: make(map[uint32][][]byte)}
				txs[m.TxID] = st
				order = append(order, m.TxID)
			}
			if _, seen := st.ops[m.Provider]; !seen {
				st.order = append(st.order, m.Provider)
			}
			st.ops[m.Provider] = m.Ops
		case *proto.TxMarkRecord:
			st := txs[m.TxID]
			if st == nil {
				st = &txState{ops: make(map[uint32][][]byte)}
				txs[m.TxID] = st
				order = append(order, m.TxID)
			}
			switch m.State {
			case proto.TxStateResolved:
				st.resolved = true
			case proto.TxStateCommitted:
				st.state = proto.TxStateCommitted
			case proto.TxStateAborted:
				st.state = proto.TxStateAborted
			case proto.TxStateIntent:
				if st.state == 0 {
					st.state = proto.TxStateIntent
				}
			}
		default:
			return fmt.Errorf("client: unexpected tx log record %T", msg)
		}
		return nil
	}); err != nil {
		return err
	}
	log, err := wal.Open(path)
	if err != nil {
		return err
	}
	c.txLog = log
	unresolved := false
	for _, id := range order {
		st := txs[id]
		if st.resolved {
			continue
		}
		unresolved = true
		if st.state == proto.TxStateCommitted {
			c.redriveCommit(id, st.order, st.ops)
		} else {
			// Presumed abort: the commit record never made it to the log, so
			// the transaction must not apply anywhere. Providers holding a
			// staged prepare discard it; ops are never hinted.
			c.redriveAbort(id, st.order)
		}
	}
	if unresolved || len(txs) > 0 {
		// Every logged transaction is now resolved (redriven commits queued
		// their stragglers in the durable hint journals first), so the log
		// can restart empty.
		return c.txLog.Reset()
	}
	return nil
}

// txEndpoint maps a logged global provider index back onto (sub, provider).
func (c *Client) txEndpoint(global uint32) (*Client, int, bool) {
	if c.shards != nil {
		g := int(global) / c.opts.N
		if g >= len(c.shards) {
			return nil, 0, false
		}
		return c.shards[g], int(global) % c.opts.N, true
	}
	if int(global) >= c.opts.N {
		return nil, 0, false
	}
	return c, int(global), true
}

// redriveCommit re-sends commit for a transaction whose commit record is
// durable. A provider that answers (including "no such tx" after staging
// was lost, or any other failure) falls back to hint-journal replay of the
// raw ops — replay tolerates already-applied mutations.
func (c *Client) redriveCommit(txid uint64, order []uint32, ops map[uint32][][]byte) {
	for _, global := range order {
		sub, prov, ok := c.txEndpoint(global)
		if !ok {
			continue
		}
		if _, err := sub.call(prov, &proto.TxCommitRequest{TxID: txid}, noDeadline); err != nil {
			var remote *proto.RemoteError
			if !errors.As(err, &remote) {
				sub.markProvider(prov, true)
			}
			for _, raw := range ops[global] {
				msg, derr := proto.Decode(raw)
				if derr != nil {
					continue
				}
				_ = sub.hintMutation(prov, msg)
			}
			sub.ensureRepairLoop()
			sub.kickRepair()
		}
	}
}

// redriveAbort best-effort discards staged state for a presumed-aborted
// transaction. Failures are fine: staging is in memory, so an unreachable
// provider has already forgotten it (or will on its next restart), and an
// over-sent abort for an unknown id succeeds by design.
func (c *Client) redriveAbort(txid uint64, order []uint32) {
	for _, global := range order {
		sub, prov, ok := c.txEndpoint(global)
		if !ok {
			continue
		}
		_, _ = sub.call(prov, &proto.TxAbortRequest{TxID: txid}, noDeadline)
	}
}

// closeTxLog releases the transaction log file.
func (c *Client) closeTxLog() error {
	if c.txLog == nil {
		return nil
	}
	err := c.txLog.Close()
	c.txLog = nil
	return err
}
