package client

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

// shardFleet is an in-process sharded deployment: groups×n provider stores
// behind faulty-capable connections and one shard router.
type shardFleet struct {
	router *Client
	stores [][]*store.Store
	faults [][]*transport.FaultyConn
}

func newShardFleet(t testing.TB, groups, n, k int, opts Options) *shardFleet {
	t.Helper()
	f := &shardFleet{}
	connGroups := make([][]transport.Conn, groups)
	for g := 0; g < groups; g++ {
		stores := make([]*store.Store, n)
		faults := make([]*transport.FaultyConn, n)
		conns := make([]transport.Conn, n)
		for i := 0; i < n; i++ {
			st, err := store.Open("")
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = st
			faults[i] = transport.NewFaulty(transport.NewLocal(server.New(st)))
			conns[i] = faults[i]
		}
		f.stores = append(f.stores, stores)
		f.faults = append(f.faults, faults)
		connGroups[g] = conns
	}
	opts.K = k
	if len(opts.MasterKey) == 0 {
		opts.MasterKey = []byte("test master key")
	}
	r, err := NewSharded(connGroups, opts)
	if err != nil {
		t.Fatal(err)
	}
	f.router = r
	t.Cleanup(func() { r.Close() })
	return f
}

func (f *shardFleet) mustExec(t testing.TB, q string) *Result {
	t.Helper()
	res, err := f.router.Exec(q)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	return res
}

// totalStaged counts staged prepares across a fleet's stores.
func totalStaged(stores []*store.Store) int {
	n := 0
	for _, st := range stores {
		n += st.StagedTxs()
	}
	return n
}

func TestTxCommitAppliesBufferedWrites(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f) // 6 rows

	tx, err := f.client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`INSERT INTO employees VALUES ('Zed', 99, 4)`,
		`UPDATE employees SET salary = 11 WHERE name = 'John'`,
		`DELETE FROM employees WHERE name = 'Bob'`,
	} {
		if _, err := tx.Exec(q); err != nil {
			t.Fatalf("tx.Exec(%q): %v", q, err)
		}
	}
	// Nothing visible before commit — not to the tx (no read-your-writes)
	// and not outside it.
	in, err := tx.Exec(`SELECT name FROM employees WHERE name = 'Zed'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Rows) != 0 {
		t.Fatalf("tx read its own buffered insert: %v", rowsAsStrings(in))
	}
	if out := f.mustExec(t, `SELECT name FROM employees WHERE name = 'Zed'`); len(out.Rows) != 0 {
		t.Fatalf("buffered insert visible before commit: %v", rowsAsStrings(out))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(f.mustExec(t, `SELECT name, salary FROM employees`))
	want := map[string]bool{}
	for _, r := range got {
		want[r] = true
	}
	if !want["Zed,99"] {
		t.Errorf("committed insert missing from %v", got)
	}
	if want["Bob,40"] {
		t.Errorf("committed delete did not remove Bob: %v", got)
	}
	if !want["John,11"] || want["John,10"] || want["John,35"] {
		t.Errorf("committed update did not rewrite both Johns: %v", got)
	}
	if len(got) != 6 { // 6 - 1 deleted + 1 inserted
		t.Errorf("final row count %d, want 6: %v", len(got), got)
	}
	// The handle is spent.
	if _, err := tx.Exec(`SELECT * FROM employees`); !errors.Is(err, ErrTxDone) {
		t.Errorf("Exec after Commit: %v, want ErrTxDone", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double Commit: %v, want ErrTxDone", err)
	}
	if totalStaged(f.stores) != 0 {
		t.Errorf("%d staged prepares left after commit", totalStaged(f.stores))
	}
}

func TestTxRollbackDiscardsBuffer(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	tx, err := f.client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`DELETE FROM employees`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	if res := f.mustExec(t, `SELECT * FROM employees`); len(res.Rows) != 6 {
		t.Fatalf("rollback lost rows: %d of 6 left", len(res.Rows))
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double Rollback: %v, want ErrTxDone", err)
	}
}

func TestTxSnapshotIsolation(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	tx, err := f.client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// A write committed after Begin is invisible inside the tx, visible
	// outside it.
	f.mustExec(t, `INSERT INTO employees VALUES ('Late', 1, 9)`)
	in, err := tx.Exec(`SELECT name FROM employees`)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Rows) != 6 {
		t.Errorf("snapshot read saw %d rows, want the 6 from Begin: %v", len(in.Rows), rowsAsStrings(in))
	}
	if out := f.mustExec(t, `SELECT name FROM employees`); len(out.Rows) != 7 {
		t.Errorf("non-tx read saw %d rows, want 7", len(out.Rows))
	}
	// A table created after Begin reads as empty inside the tx.
	f.mustExec(t, `CREATE TABLE late (x INT)`)
	f.mustExec(t, `INSERT INTO late VALUES (1)`)
	if res, err := tx.Exec(`SELECT x FROM late`); err != nil {
		t.Fatal(err)
	} else if len(res.Rows) != 0 {
		t.Errorf("post-Begin table visible in snapshot: %v", rowsAsStrings(res))
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
}

func TestTxRejectsUnsupportedShapes(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	tx, err := f.client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	for _, q := range []string{
		`SELECT COUNT(*) FROM employees`,
		`SELECT name FROM employees ORDER BY salary`,
		`SELECT name FROM employees VERIFIED`,
		`BEGIN`,
		`CREATE TABLE nope (x INT)`,
	} {
		if _, err := tx.Exec(q); !errors.Is(err, ErrUnsupported) {
			t.Errorf("tx.Exec(%q): %v, want ErrUnsupported", q, err)
		}
	}
	// Outside a handle, the tx keywords point the caller at Begin.
	if _, err := f.client.Exec(`BEGIN`); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Client.Exec(BEGIN): %v, want ErrUnsupported", err)
	}
	if _, err := f.client.Exec(`COMMIT`); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Client.Exec(COMMIT): %v, want ErrUnsupported", err)
	}
}

// TestTxAbortOnCrashedProvider: with the default WriteQuorum (all n), a
// crashed provider fails prepare's quorum, the commit aborts, and no
// provider is left with the transaction's rows or staging.
func TestTxAbortOnCrashedProvider(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	tx, err := f.client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO employees VALUES ('Ghost', 1, 1)`); err != nil {
		t.Fatal(err)
	}
	f.faults[2].Crash()
	err = tx.Commit()
	if !errors.Is(err, ErrTxAborted) {
		t.Fatalf("Commit with crashed provider: %v, want ErrTxAborted", err)
	}
	f.faults[2].Recover()
	if res := f.mustExec(t, `SELECT name FROM employees WHERE name = 'Ghost'`); len(res.Rows) != 0 {
		t.Fatalf("aborted transaction left rows: %v", rowsAsStrings(res))
	}
	if n := totalStaged(f.stores[:2]); n != 0 {
		t.Errorf("%d staged prepares left on reachable providers after abort", n)
	}
	// The client is not wedged: later statements work.
	f.mustExec(t, `INSERT INTO employees VALUES ('After', 2, 2)`)
	if res := f.mustExec(t, `SELECT name FROM employees WHERE name = 'After'`); len(res.Rows) != 1 {
		t.Fatalf("insert after aborted tx invisible")
	}
}

// TestShardedTxCrossGroupCommit drives one transaction whose statements land
// on multiple provider groups and checks the commit is atomic across them —
// including the abort case, where a fully-crashed group must prevent every
// other group from applying.
func TestShardedTxCrossGroupCommit(t *testing.T) {
	f := newShardFleet(t, 2, 3, 2, Options{Shards: 2})
	f.mustExec(t, `CREATE TABLE kv (id INT, v INT)`)
	tx, err := f.router.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// 8 sequence-hashed rows scatter across both groups.
	for i := 0; i < 8; i++ {
		if _, err := tx.Exec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, %d)`, i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if res := f.mustExec(t, `SELECT id FROM kv`); len(res.Rows) != 8 {
		t.Fatalf("cross-group commit landed %d of 8 rows", len(res.Rows))
	}
	perGroup := make([]int, 2)
	for g := range f.stores {
		rc, err := f.stores[g][0].RowCount("kv")
		if err != nil {
			t.Fatal(err)
		}
		perGroup[g] = rc
	}
	if perGroup[0] == 0 || perGroup[1] == 0 {
		t.Fatalf("rows did not scatter: group counts %v", perGroup)
	}

	// Abort case: group 1 unreachable, so the whole transaction must apply
	// nowhere — group 0 included.
	tx2, err := f.router.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 16; i++ {
		if _, err := tx2.Exec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, %d)`, i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	for _, fc := range f.faults[1] {
		fc.Crash()
	}
	if err := tx2.Commit(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("cross-group commit with dead group: %v, want ErrTxAborted", err)
	}
	for _, fc := range f.faults[1] {
		fc.Recover()
	}
	if res := f.mustExec(t, `SELECT id FROM kv`); len(res.Rows) != 8 {
		t.Fatalf("aborted cross-group tx leaked rows: %d, want 8", len(res.Rows))
	}
	// UPDATE and DELETE route through the same commit.
	tx3, err := f.router.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx3.Exec(`UPDATE kv SET v = 1 WHERE id >= 4`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx3.Exec(`DELETE FROM kv WHERE id < 2`); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	res := f.mustExec(t, `SELECT id, v FROM kv`)
	if len(res.Rows) != 6 {
		t.Fatalf("after tx update+delete: %d rows, want 6: %v", len(res.Rows), rowsAsStrings(res))
	}
	for _, r := range rowsAsStrings(res) {
		var id, v int
		fmt.Sscanf(r, "%d,%d", &id, &v)
		wantV := id * 10
		if id >= 4 {
			wantV = 1
		}
		if v != wantV {
			t.Errorf("row %d has v=%d, want %d", id, v, wantV)
		}
	}
}

// TestTxCrashRecoveryDifferential is the crash-injection differential for
// the commit path: three transactions die (or not) at different 2PC stages,
// the client restarts on the same transaction log, and recovery must replay
// exactly the transactions whose commit record made it to the log.
func TestTxCrashRecoveryDifferential(t *testing.T) {
	base := t.TempDir()
	opts := Options{
		K:              2,
		MasterKey:      []byte("test master key"),
		HintDir:        filepath.Join(base, "hints"),
		RepairInterval: 10 * time.Millisecond,
	}
	stores := make([]*store.Store, 3)
	for i := range stores {
		st, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	openConns := func() []transport.Conn {
		conns := make([]transport.Conn, len(stores))
		for i, st := range stores {
			conns[i] = transport.NewFaulty(transport.NewLocal(server.New(st)))
		}
		return conns
	}

	// Session 1: one tx dies after prepare (in doubt), one dies after the
	// commit record (committed, never applied), one completes normally.
	c1, err := New(openConns(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec(`CREATE TABLE t (tag VARCHAR(8))`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec(`INSERT INTO t VALUES ('base')`); err != nil {
		t.Fatal(err)
	}
	errCrash := errors.New("simulated coordinator crash")
	crashAt := ""
	c1.txHook = func(stage string) error {
		if stage == crashAt {
			return errCrash
		}
		return nil
	}
	runTx := func(tag, stage string) error {
		tx, err := c1.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(fmt.Sprintf(`INSERT INTO t VALUES ('%s')`, tag)); err != nil {
			t.Fatal(err)
		}
		crashAt = stage
		defer func() { crashAt = "" }()
		return tx.Commit()
	}
	if err := runTx("indoubt", "prepared"); !errors.Is(err, errCrash) {
		t.Fatalf("crash at prepared: %v", err)
	}
	if err := runTx("decided", "committed"); !errors.Is(err, errCrash) {
		t.Fatalf("crash at committed: %v", err)
	}
	if err := runTx("clean", ""); err != nil {
		t.Fatalf("clean commit: %v", err)
	}
	// Both crashed transactions left staging behind on the providers.
	if n := totalStaged(stores); n == 0 {
		t.Fatal("expected staged prepares from the crashed transactions")
	}
	catalog, err := c1.ExportCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 2: recovery replays the log. The committed tx must be applied,
	// the in-doubt one presumed-aborted, and the staging discarded.
	c2, err := New(openConns(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c2.Close()
		for _, st := range stores {
			st.Close()
		}
	})
	if err := c2.ImportCatalog(catalog); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c2)
	res, err := c2.Exec(`SELECT tag FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, r := range rowsAsStrings(res) {
		got[r] = true
	}
	for _, want := range []string{"base", "decided", "clean"} {
		if !got[want] {
			t.Errorf("recovery lost committed row %q: have %v", want, rowsAsStrings(res))
		}
	}
	if got["indoubt"] {
		t.Errorf("recovery replayed an in-doubt transaction: %v", rowsAsStrings(res))
	}
	if len(got) != 3 {
		t.Errorf("recovered table has %d rows, want 3: %v", len(got), rowsAsStrings(res))
	}
	if n := totalStaged(stores); n != 0 {
		t.Errorf("%d staged prepares survived recovery", n)
	}
	for i, st := range stores {
		rc, err := st.RowCount("t")
		if err != nil {
			t.Fatal(err)
		}
		if rc != 3 {
			t.Errorf("provider %d holds %d rows after recovery, want 3", i, rc)
		}
	}
	// The recovered log is reset: a third session replays nothing.
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3, err := New(openConns(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if err := c3.ImportCatalog(catalog); err != nil {
		t.Fatal(err)
	}
	res, err = c3.Exec(`SELECT tag FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("third session sees %d rows, want 3", len(res.Rows))
	}
}

// TestWatermarkRecoversAfterFailedInsert is the regression gate for the
// inflight-reservation leak: a failed INSERT (write quorum unreachable) must
// release its reservation on every error path, so the stable watermark — and
// with it the visibility of later successful inserts — recovers immediately.
func TestWatermarkRecoversAfterFailedInsert(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE w (x INT)`)
	f.mustExec(t, `INSERT INTO w VALUES (1), (2)`)
	f.faults[2].Crash()
	if _, err := f.client.Exec(`INSERT INTO w VALUES (3)`); err == nil {
		t.Fatal("insert with crashed provider and full write quorum succeeded")
	}
	f.faults[2].Recover()
	meta, err := f.client.cat.table("w")
	if err != nil {
		t.Fatal(err)
	}
	e := f.client.groups[0]
	e.insMu.Lock()
	inflight := len(e.inflight["w"])
	e.insMu.Unlock()
	if inflight != 0 {
		t.Fatalf("failed insert leaked %d inflight reservations", inflight)
	}
	if w := e.stableWatermark(meta); w != meta.nextID[0] {
		t.Fatalf("watermark pinned at %d below frontier %d after failed insert", w, meta.nextID[0])
	}
	f.mustExec(t, `INSERT INTO w VALUES (4), (5)`)
	got := rowsAsStrings(f.mustExec(t, `SELECT x FROM w`))
	if len(got) != 4 {
		t.Fatalf("post-failure inserts hidden by pinned watermark: %v", got)
	}
}

// TestWatermarkRecoversAfterFailedShardedInsert is the sharded variant: the
// scatter insert fails in the group with the crashed provider, and every
// group's reservation must be released — a leak in any one group would pin
// that group's scans forever.
func TestWatermarkRecoversAfterFailedShardedInsert(t *testing.T) {
	f := newShardFleet(t, 2, 3, 2, Options{Shards: 2})
	f.mustExec(t, `CREATE TABLE w (x INT)`)
	f.mustExec(t, `INSERT INTO w VALUES (1), (2), (3), (4)`)
	f.faults[1][0].Crash()
	if _, err := f.router.Exec(`INSERT INTO w VALUES (10), (11), (12), (13), (14), (15), (16), (17)`); err == nil {
		t.Fatal("scatter insert with a crashed provider and full write quorum succeeded")
	}
	f.faults[1][0].Recover()
	// Groups that committed their batch keep it (per-group atomicity is the
	// documented non-tx contract); what must NOT happen is any group keeping
	// an inflight reservation that pins its watermark.
	meta, err := f.router.cat.table("w")
	if err != nil {
		t.Fatal(err)
	}
	for g, sub := range f.router.groups {
		sub.insMu.Lock()
		inflight := len(sub.inflight["w"])
		sub.insMu.Unlock()
		if inflight != 0 {
			t.Errorf("group %d leaked %d inflight reservations", g, inflight)
		}
		if w := sub.stableWatermark(meta); w != meta.nextID[g] {
			t.Errorf("group %d watermark pinned at %d below frontier %d", g, w, meta.nextID[g])
		}
	}
	waitShardRepair(t, f)
	visible := len(f.mustExec(t, `SELECT x FROM w`).Rows)
	f.mustExec(t, `INSERT INTO w VALUES (20), (21), (22), (23)`)
	got := len(f.mustExec(t, `SELECT x FROM w`).Rows)
	if got != visible+4 {
		t.Fatalf("post-failure rows hidden: %d visible, want %d", got, visible+4)
	}
}

// waitShardRepair waits for every group of a shard fleet to converge.
func waitShardRepair(t testing.TB, f *shardFleet) {
	t.Helper()
	waitConverged(t, f.router)
}

// TestTxCommitHealsLaggingProvider: a provider that misses the commit round
// (crashes between prepare and commit) is healed through the hint journal,
// while the transaction still commits at the quorum.
func TestTxCommitHealsLaggingProvider(t *testing.T) {
	f := newFleet(t, 3, 2, Options{WriteQuorum: 2, RepairInterval: 10 * time.Millisecond})
	setupEmployees(t, f)
	tx, err := f.client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO employees VALUES ('Heal', 7, 7)`); err != nil {
		t.Fatal(err)
	}
	f.faults[2].Crash()
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit with quorum 2 of 3: %v", err)
	}
	f.faults[2].Recover()
	waitConverged(t, f.client)
	for i, st := range f.stores {
		rc, err := st.RowCount("employees")
		if err != nil {
			t.Fatal(err)
		}
		if rc != 7 {
			t.Errorf("provider %d holds %d rows after repair, want 7", i, rc)
		}
	}
}

// txDir returns the transaction log path of a HintDir, for existence checks.
func txDir(hintDir string) string { return filepath.Join(hintDir, txLogName) }

// TestTxLogResetAfterResolve: a cleanly-resolved commit leaves the log
// re-playable as empty — restart must not grow recovery work without bound.
func TestTxLogResetAfterResolve(t *testing.T) {
	base := t.TempDir()
	opts := Options{K: 2, HintDir: filepath.Join(base, "hints")}
	f := newFleet(t, 3, 2, opts)
	setupEmployees(t, f)
	tx, err := f.client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO employees VALUES ('Log', 3, 3)`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(txDir(opts.HintDir)); err != nil {
		t.Fatalf("transaction log missing: %v", err)
	}
	// The log contains the full resolved history of one tx; replaying it
	// must find nothing unresolved (covered by recovery tests) and the next
	// open resets it (covered here by the size shrinking to the header).
	if err := f.client.Close(); err != nil {
		t.Fatal(err)
	}
	c2Conns := make([]transport.Conn, len(f.stores))
	for i, st := range f.stores {
		c2Conns[i] = transport.NewFaulty(transport.NewLocal(server.New(st)))
	}
	optsFull := opts
	optsFull.MasterKey = []byte("test master key")
	c2, err := New(c2Conns, optsFull)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	fi1, err := os.Stat(txDir(opts.HintDir))
	if err != nil {
		t.Fatal(err)
	}
	if fi1.Size() > 64 {
		t.Errorf("resolved tx log not reset on reopen: %d bytes", fi1.Size())
	}
}

// TestTxLogEmptyAfterCommits: the transaction log is emptied as each commit
// resolves, by the one fsync a resolution record would take, so after 40
// one-row commits it holds nothing and each commit cost three fsyncs.
func TestTxLogEmptyAfterCommits(t *testing.T) {
	opts := Options{K: 2, HintDir: filepath.Join(t.TempDir(), "hints")}
	f := newFleet(t, 3, 2, opts)
	setupEmployees(t, f)
	before, _, _ := f.client.txLog.SyncStats()
	for i := 0; i < 40; i++ {
		tx, err := f.client.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(fmt.Sprintf(`INSERT INTO employees VALUES ('Log%d', %d, 1)`, i, i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(txDir(opts.HintDir))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Errorf("transaction log holds %d bytes after 40 resolved commits, want 0", fi.Size())
	}
	if after, _, _ := f.client.txLog.SyncStats(); after-before != 3*40 {
		t.Errorf("40 commits took %d tx log fsyncs, want %d", after-before, 3*40)
	}
}

// TestTxEmptyAndReadOnlyCommit: transactions with no writes commit without
// touching a provider or the log.
func TestTxEmptyAndReadOnlyCommit(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	tx, err := f.client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`SELECT name FROM employees WHERE salary > 30`); err != nil {
		t.Fatal(err)
	}
	calls := f.client.Stats().Calls
	if _, err := tx.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}
	if after := f.client.Stats().Calls; after != calls {
		t.Errorf("read-only commit made %d provider calls", after-calls)
	}
}

// TestTxSQLKeywordRouting: the SQL forms BEGIN/COMMIT/ROLLBACK drive the
// same machinery as the method calls.
func TestTxSQLKeywordRouting(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	tx, err := f.client.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO employees VALUES ('Kw', 5, 5)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}
	if res := f.mustExec(t, `SELECT name FROM employees WHERE name = 'Kw'`); len(res.Rows) != 1 {
		t.Fatal("COMMIT keyword did not run the commit")
	}
	if strings.Contains(fmt.Sprint(rowsAsStrings(f.mustExec(t, `SELECT name FROM employees`))), "missing") {
		t.Fatal("unreachable")
	}
}

// TestTxStaleCatalogInsertAborts pins the prepare-time duplicate-id check
// end to end. A client restored from a stale catalog re-allocates row ids
// already live on the providers; its transactional INSERT must abort
// cleanly at prepare (matching the autocommit path's ErrDuplicateRow
// rejection) rather than pass prepare, log a durable commit decision, and
// wedge half-applied at phase 2.
func TestTxStaleCatalogInsertAborts(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE t (v INT)`)
	f.mustExec(t, `INSERT INTO t VALUES (1)`)
	stale, err := f.client.ExportCatalog()
	if err != nil {
		t.Fatal(err)
	}
	// Advance the live id space past the exported catalog's counters.
	f.mustExec(t, `INSERT INTO t VALUES (2), (3)`)

	conns := make([]transport.Conn, len(f.stores))
	for i, st := range f.stores {
		conns[i] = transport.NewLocal(server.New(st))
	}
	c2, err := New(conns, Options{K: 2, MasterKey: []byte("test master key")})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.ImportCatalog(stale); err != nil {
		t.Fatal(err)
	}
	tx, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (9)`); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	if !errors.Is(err, ErrTxAborted) {
		t.Fatalf("stale-catalog tx commit: %v, want ErrTxAborted", err)
	}
	if !strings.Contains(err.Error(), "duplicate row id") {
		t.Fatalf("abort cause should name the duplicate id: %v", err)
	}
	// The abort left nothing behind: no staging, no extra rows, and the
	// original client still sees exactly its own three inserts.
	if n := totalStaged(f.stores); n != 0 {
		t.Fatalf("%d staged txs after abort", n)
	}
	res := f.mustExec(t, `SELECT v FROM t`)
	if len(res.Rows) != 3 {
		t.Fatalf("table has %d rows after aborted duplicate insert, want 3", len(res.Rows))
	}
}

// TestTxExecResolvesWrites: a transaction's DML is resolved against the
// catalog by the same parser as an autocommit statement, at Tx.Exec, so a
// statement that cannot run fails there instead of at Commit, and nothing of
// it is buffered.
func TestTxExecResolvesWrites(t *testing.T) {
	f := newShardFleet(t, 2, 3, 2, Options{Shards: 2, ShardKeys: map[string]string{"kv": "id"}})
	f.mustExec(t, `CREATE TABLE kv (id INT, v INT)`)
	tx, err := f.router.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    string
		want error
	}{
		{`INSERT INTO missing VALUES (1, 2)`, ErrNoSuchTable},
		{`UPDATE missing SET v = 1`, ErrNoSuchTable},
		{`DELETE FROM missing WHERE id = 1`, ErrNoSuchTable},
		{`UPDATE kv SET nope = 1 WHERE id = 1`, ErrNoSuchColumn},
		{`UPDATE kv SET v = 1 WHERE nope = 1`, ErrNoSuchColumn},
		{`DELETE FROM kv WHERE nope = 1`, ErrNoSuchColumn},
		{`INSERT INTO kv VALUES ('x', 1)`, ErrTypeMismatch},
		{`INSERT INTO kv VALUES (1)`, ErrTypeMismatch},
		{`UPDATE kv SET v = 'x' WHERE id = 1`, ErrTypeMismatch},
		{`DELETE FROM kv WHERE v = 'x'`, ErrTypeMismatch},
		{`UPDATE kv SET id = 2 WHERE id = 1`, ErrUnsupported},
	} {
		if _, err := tx.Exec(tc.q); !errors.Is(err, tc.want) {
			t.Errorf("tx.Exec(%q) = %v, want %v", tc.q, err, tc.want)
		}
	}
	if _, err := tx.InsertValues("kv", [][]Value{{IntValue(1)}}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("tx.InsertValues of a short row = %v, want ErrTypeMismatch", err)
	}
	if _, err := tx.InsertValues("missing", [][]Value{{IntValue(1), IntValue(2)}}); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("tx.InsertValues into a missing table = %v, want ErrNoSuchTable", err)
	}
	calls := f.router.Stats().Calls
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit of refused statements only: %v", err)
	}
	if after := f.router.Stats().Calls; after != calls {
		t.Errorf("refused statements were buffered: commit made %d provider calls", after-calls)
	}
}

// TestTxCommitOfDroppedTable: a buffered statement is bound to the table it
// was resolved against, so a commit after that table is dropped — even
// re-created under the same name — fails with ErrNoSuchTable and applies
// nothing, the statements on live tables included.
func TestTxCommitOfDroppedTable(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	f.mustExec(t, `CREATE TABLE gone (x INT)`)
	for _, recreate := range []bool{false, true} {
		tx, err := f.client.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{
			`INSERT INTO employees VALUES ('Zed', 99, 4)`,
			`DELETE FROM employees WHERE name = 'Bob'`,
			`INSERT INTO gone VALUES (1)`,
		} {
			if _, err := tx.Exec(q); err != nil {
				t.Fatalf("tx.Exec(%q): %v", q, err)
			}
		}
		f.mustExec(t, `DROP TABLE gone`)
		if recreate {
			f.mustExec(t, `CREATE TABLE gone (x VARCHAR(4), y INT)`)
		}
		calls := f.client.Stats().Calls
		if err := tx.Commit(); !errors.Is(err, ErrNoSuchTable) {
			t.Fatalf("commit into a dropped table (re-created: %v) = %v, want ErrNoSuchTable", recreate, err)
		}
		if after := f.client.Stats().Calls; after != calls {
			t.Errorf("failed commit made %d provider calls", after-calls)
		}
		if got := len(f.mustExec(t, `SELECT name FROM employees`).Rows); got != 6 {
			t.Fatalf("failed commit changed employees: %d rows, want 6", got)
		}
		if !recreate {
			f.mustExec(t, `CREATE TABLE gone (x INT)`)
		}
	}
	if totalStaged(f.stores) != 0 {
		t.Errorf("%d staged prepares after failed commits", totalStaged(f.stores))
	}
}
