package client

// Multi-statement transactions: the client is the transaction coordinator
// (the paper's trust model — providers never talk to each other), running a
// client-coordinated two-phase commit over the provider fleet.
//
// A Tx buffers DML locally, each statement resolved at Tx.Exec into the same
// write an autocommit statement becomes (exec.go); an UPDATE or DELETE is
// evaluated at commit time against the then-current state. Commit, under
// every group's exclusive statement lock, lowers every write through the same
// engine.lower as autocommit into per-provider op batches, appends them
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

// Tx is a multi-statement transaction handle. A Tx is not safe for
// concurrent use; reads run against the Begin-time snapshot, writes buffer
// until Commit. Aggregates, joins, GROUP BY, ORDER BY, and verified reads
// are not available inside a transaction (they combine per-provider state
// that carries no row ids to snapshot-filter on).
type Tx struct {
	c  *Client
	id uint64
	// epochs maps table -> snapshot watermark captured at Begin, one entry
	// per provider group.
	epochs map[string][]uint64
	writes []*write
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
// in the catalog, in every group.
func (c *Client) Begin() (*Tx, error) {
	tx := &Tx{c: c, id: newTxID(), epochs: make(map[string][]uint64)}
	for _, meta := range c.cat.list() {
		es := make([]uint64, len(c.groups))
		for g, e := range c.groups {
			es[g] = e.stableWatermark(meta)
		}
		tx.epochs[meta.Name] = es
	}
	return tx, nil
}

// ID returns the transaction id (diagnostics and tests).
func (tx *Tx) ID() uint64 { return tx.id }

// Done reports whether the transaction has finished (committed, rolled
// back, or aborted) and can no longer accept statements.
func (tx *Tx) Done() bool { return tx.done }

// Exec runs one SQL statement inside the transaction: SELECTs read the
// Begin-time snapshot immediately; INSERT/UPDATE/DELETE are resolved against
// the catalog now — a statement that cannot run fails here — and buffer
// until Commit (their Result reports zero affected rows — the count is
// unknown until commit). COMMIT and ROLLBACK finish the transaction. DDL is
// not transactional.
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
	case *sql.Insert, *sql.Update, *sql.Delete:
		return tx.buffer(s, nil)
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
	return tx.buffer(&sql.Insert{Table: table}, rows)
}

// buffer resolves a DML statement — the same write an autocommit statement
// becomes — and holds it for Commit.
func (tx *Tx) buffer(stmt sql.Statement, typed [][]Value) (*Result, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	w, err := tx.c.resolveWrite(stmt, typed, false)
	if err != nil {
		return nil, err
	}
	tx.writes = append(tx.writes, w)
	return &Result{}, nil
}

// execSelect runs a snapshot read through the client's one SELECT pipeline,
// every routed group's scan capped at its Begin-time epoch. Only plain scans
// (projection, WHERE, LIMIT) are supported inside a transaction.
func (tx *Tx) execSelect(s *sql.Select) (*Result, error) {
	if s.Verified || s.Join != nil || s.GroupBy != nil || s.OrderBy != nil {
		return nil, fmt.Errorf("%w: only plain scans are available inside a transaction", ErrUnsupported)
	}
	for _, item := range s.Items {
		if item.Agg != sql.AggNone {
			return nil, fmt.Errorf("%w: aggregates inside a transaction", ErrUnsupported)
		}
	}
	epochs := tx.epochs[s.Table]
	if epochs == nil {
		// Tables unknown at Begin read as empty: epoch 0 hides every row.
		epochs = make([]uint64, len(tx.c.groups))
	}
	return tx.c.execSelect(s, epochs)
}

// Rollback discards the buffered statements. Nothing has reached a provider
// yet, so there is nothing to compensate.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.writes = nil
	return nil
}

// Commit runs the two-phase commit. On success every buffered statement is
// durable at a write quorum of every involved provider group; on error the
// transaction applied nowhere (prepared providers were told to abort). A
// statement whose table was dropped since Tx.Exec fails the commit with
// ErrNoSuchTable before anything is sent.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	if len(tx.writes) == 0 {
		return nil
	}
	c := tx.c
	metas := make([]*tableMeta, len(tx.writes))
	for i, w := range tx.writes {
		metas[i] = w.meta
	}
	unlock, err := c.lock(c.allGroups(), true, metas...)
	if err != nil {
		return err
	}
	defer unlock()
	// Each write is lowered in statement order, in the groups it routes to,
	// onto op batches by the global provider index the log records (group*N +
	// provider); one 2PC over all of them makes a multi-group write atomic.
	n := c.opts.N
	ops := make([][]proto.Message, len(c.groups)*n)
	for _, w := range tx.writes {
		targets, batches, err := c.route(w)
		if err != nil {
			return err
		}
		for _, g := range targets {
			e := c.groups[g]
			l, err := e.lower(w, batches[g])
			if err != nil {
				return err
			}
			if w.kind == writeInsert {
				// Scans mask the reserved ids until the 2PC has settled every
				// provider's fate (applied, aborted, or hinted); committed or
				// not, the ids are burned, like a failed autocommit insert's.
				defer e.releaseIDs(w.meta, l.ids[0])
			}
			for p, msg := range l.msgs {
				ops[g*n+p] = append(ops[g*n+p], msg)
			}
		}
	}
	return c.txRun2PC(tx.id, ops)
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

// resolveTxLog marks transaction txid resolved (aborted, or committed and
// applied or hinted everywhere). If no other transaction in the log is
// unresolved — only a commit that failed midway leaves one, since commits
// run one at a time under every group's exclusive lock — it empties the log
// instead, for the same one fsync. Parallel prepares (ROADMAP item 4) will
// need to truncate through the oldest unresolved transaction instead.
func (c *Client) resolveTxLog(txid uint64) error {
	c.txUnresolved--
	if c.txLog == nil {
		return nil
	}
	if c.txUnresolved == 0 {
		return c.txLog.Reset()
	}
	if err := c.logTxRecord(&proto.TxMarkRecord{TxID: txid, State: proto.TxStateResolved}); err != nil {
		return err
	}
	return c.syncTxLog()
}

// txProvider maps a global provider index (group*N + provider), as the
// transaction log records it, onto its engine and provider.
func (c *Client) txProvider(global int) (*engine, int) {
	return c.groups[global/c.opts.N], global % c.opts.N
}

// txSend is a round's send function over global provider indices: each gets
// build(global), with no deadline.
func (c *Client) txSend(build func(global int) proto.Message) func(global int) error {
	return func(global int) error {
		e, p := c.txProvider(global)
		_, err := e.call(p, build(global), noDeadline)
		return err
	}
}

// txRun2PC drives the two-phase commit of ops, one batch per global provider
// index. The caller holds the statement locks that make the batches stable.
// Providers with empty batches are skipped. Quorum is per provider group:
// every involved group must collect Options.WriteQuorum prepare acks.
func (c *Client) txRun2PC(txid uint64, ops [][]proto.Message) error {
	// Phase 0: make the transaction's ops and the intent durable in the
	// client's log before anything leaves for a provider. Recovery treats
	// intent-without-commit as presumed-abort, so a crash at any point up to
	// the commit record undoes the transaction. Providers already lagging
	// are not prepared — the transaction's ops must queue behind their
	// earlier hints — and get the raw ops hinted after the commit decision.
	raw := make([][][]byte, len(ops))
	var prepare, owed []int
	for gl, batch := range ops {
		if len(batch) == 0 {
			continue
		}
		for _, op := range batch {
			raw[gl] = append(raw[gl], proto.Encode(op))
		}
		if err := c.logTxRecord(&proto.TxOpsRecord{TxID: txid, Provider: uint32(gl), Ops: raw[gl]}); err != nil {
			return fmt.Errorf("client: tx log: %w", err)
		}
		if e, p := c.txProvider(gl); e.provs[p].lagging() {
			owed = append(owed, gl)
		} else {
			prepare = append(prepare, gl)
		}
	}
	if len(prepare)+len(owed) == 0 {
		return nil
	}
	if err := c.logTxRecord(&proto.TxMarkRecord{TxID: txid, State: proto.TxStateIntent}); err != nil {
		return fmt.Errorf("client: tx log: %w", err)
	}
	if err := c.syncTxLog(); err != nil {
		return fmt.Errorf("client: tx log: %w", err)
	}
	c.txUnresolved++
	if err := c.txStage("intent"); err != nil {
		return err
	}

	// Phase 1: prepare.
	prepared := round(prepare, c.txSend(func(gl int) proto.Message {
		return &proto.TxPrepareRequest{TxID: txid, Ops: raw[gl]}
	}))
	abort := func(cause error) error {
		round(prepared.acked, c.txSend(func(int) proto.Message { return &proto.TxAbortRequest{TxID: txid} }))
		_ = c.resolveTxLog(txid)
		return fmt.Errorf("%w: %v", ErrTxAborted, cause)
	}
	if prepared.rejection != nil {
		return abort(fmt.Errorf("prepare rejected: %w", prepared.rejection))
	}
	// Per-group quorum: each involved group needs WriteQuorum acks.
	acks := make([]int, len(c.groups))
	for _, gl := range prepared.acked {
		acks[gl/c.opts.N]++
	}
	for _, gl := range append(prepare, owed...) {
		if n := acks[gl/c.opts.N]; n < c.opts.WriteQuorum {
			return abort(fmt.Errorf("%w: %d prepare acks of quorum %d (%v)",
				ErrNotEnough, n, c.opts.WriteQuorum, prepared.outage))
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
	// heals the provider, exactly like a missed single-statement write; so
	// do the providers that were never prepared.
	applied := round(prepared.acked, c.txSend(func(int) proto.Message { return &proto.TxCommitRequest{TxID: txid} }))
	for _, missed := range [][]int{applied.rejected, applied.unreached, prepared.unreached, owed} {
		for _, gl := range missed {
			e, p := c.txProvider(gl)
			e.hint(p, ops[gl]...)
		}
	}
	_ = c.resolveTxLog(txid)
	return nil
}

// --- Transaction log recovery ---

// openTxLog replays and reopens the transaction log, re-driving committed
// transactions and presumed-aborting in-doubt ones. Called from NewSharded
// after every group's hint journals are open, so recovery hints land in
// durable journals.
func (c *Client) openTxLog() error {
	if c.opts.HintDir == "" {
		return nil
	}
	path := filepath.Join(c.opts.HintDir, txLogName)
	type txState struct {
		ops                 map[uint32][][]byte
		order               []uint32
		committed, resolved bool
	}
	txs := make(map[uint64]*txState)
	var order []uint64
	get := func(id uint64) *txState {
		if txs[id] == nil {
			txs[id] = &txState{ops: make(map[uint32][][]byte)}
			order = append(order, id)
		}
		return txs[id]
	}
	log, err := wal.Open(path, func(rec []byte) error {
		msg, err := proto.Decode(rec)
		if err != nil {
			return fmt.Errorf("client: decoding tx log record: %w", err)
		}
		switch m := msg.(type) {
		case *proto.TxOpsRecord:
			st := get(m.TxID)
			if _, seen := st.ops[m.Provider]; !seen {
				st.order = append(st.order, m.Provider)
			}
			st.ops[m.Provider] = m.Ops
		case *proto.TxMarkRecord:
			switch st := get(m.TxID); m.State {
			case proto.TxStateResolved:
				st.resolved = true
			case proto.TxStateCommitted:
				st.committed = true
			}
		default:
			return fmt.Errorf("client: unexpected tx log record %T", msg)
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.txLog = log
	for _, id := range order {
		switch st := txs[id]; {
		case st.resolved: // nothing left to settle
		case st.committed:
			c.redriveCommit(id, st.order, st.ops)
		default:
			// Presumed abort: the commit record never made it to the log, so
			// the transaction must not apply anywhere. Providers holding a
			// staged prepare discard it; ops are never hinted. Failures are
			// fine: staging is in memory, so an unreachable provider has
			// already forgotten it (or will on its next restart), and an
			// over-sent abort for an unknown id succeeds by design.
			c.redrive(st.order, &proto.TxAbortRequest{TxID: id})
		}
	}
	if len(txs) > 0 {
		// Every logged transaction is now resolved (redriven commits queued
		// their stragglers in the durable hint journals first), so the log
		// can restart empty.
		return c.txLog.Reset()
	}
	return nil
}

// redrive re-sends a logged transaction's outcome to the providers its log
// records name (those this client is configured with, at least) and returns
// how the round went.
func (c *Client) redrive(order []uint32, outcome proto.Message) tally {
	var to []int
	for _, global := range order {
		if int(global) < len(c.groups)*c.opts.N {
			to = append(to, int(global))
		}
	}
	return round(to, c.txSend(func(int) proto.Message { return outcome }))
}

// redriveCommit re-sends commit for a transaction whose commit record is
// durable. A provider that does not ack it — unreachable, "no such tx"
// after staging was lost, or any other rejection — falls back to
// hint-journal replay of the raw ops, which tolerates already-applied
// mutations.
func (c *Client) redriveCommit(txid uint64, order []uint32, ops map[uint32][][]byte) {
	t := c.redrive(order, &proto.TxCommitRequest{TxID: txid})
	for _, global := range append(t.rejected, t.unreached...) {
		var msgs []proto.Message
		for _, raw := range ops[uint32(global)] {
			if msg, err := proto.Decode(raw); err == nil {
				msgs = append(msgs, msg)
			}
		}
		e, p := c.txProvider(global)
		e.hint(p, msgs...)
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
