package client

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sssdb/internal/proto"
	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

// waitConverged spins until every hint journal has drained and every
// provider has been readmitted, kicking the repair loop along the way.
func waitConverged(t testing.TB, c *Client) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !c.Converged() {
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not converge: %d hints pending for providers %v",
				c.PendingHints(), c.LaggingProviders())
		}
		c.RepairNow()
		time.Sleep(5 * time.Millisecond)
	}
}

// crashAllExcept crashes every provider outside the keep set.
func crashAllExcept(f *fleet, keep ...int) {
	for i, fc := range f.faults {
		kept := false
		for _, k := range keep {
			if i == k {
				kept = true
			}
		}
		if !kept {
			fc.Crash()
		}
	}
}

func recoverAll(f *fleet) {
	for _, fc := range f.faults {
		fc.Recover()
	}
}

// refusingDeleteConn refuses DeleteRequests at the transport layer while
// armed, letting tests exercise rollback-failure paths.
type refusingDeleteConn struct {
	transport.Conn
	refuse atomic.Bool
}

var errDeleteRefused = errors.New("synthetic transport failure on delete")

func (c *refusingDeleteConn) Call(req proto.Message) (proto.Message, error) {
	if _, ok := req.(*proto.DeleteRequest); ok && c.refuse.Load() {
		return nil, errDeleteRefused
	}
	return c.Conn.Call(req)
}

// TestInsertRollbackAttemptsAllAndHintsUnreachable pins the fixed
// compensation bug: when an insert misses its quorum, rollback must be
// attempted on EVERY provider that accepted the batch — not stop at the
// first failed rollback — and a rollback that fails on transport is queued
// as a hint so the fork heals when the provider returns.
func TestInsertRollbackAttemptsAllAndHintsUnreachable(t *testing.T) {
	const n = 5
	stores := make([]*store.Store, n)
	conns := make([]transport.Conn, n)
	crasher := (*transport.FaultyConn)(nil)
	refuser := (*refusingDeleteConn)(nil)
	for i := 0; i < n; i++ {
		st, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
		inner := transport.NewLocal(server.New(st))
		switch i {
		case 0:
			crasher = transport.NewFaulty(inner)
			conns[i] = crasher
		case 1:
			refuser = &refusingDeleteConn{Conn: inner}
			conns[i] = refuser
		default:
			conns[i] = inner
		}
	}
	// Default WriteQuorum (= N): any provider failure must fail the insert.
	c, err := New(conns, Options{K: 2, MasterKey: []byte("test master key")})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE items (v INT)`); err != nil {
		t.Fatal(err)
	}
	crasher.Crash()
	refuser.refuse.Store(true)
	_, err = c.Exec(`INSERT INTO items VALUES (1), (2)`)
	if err == nil {
		t.Fatal("insert committed without provider 0")
	}
	if !strings.Contains(err.Error(), "rollback on provider 1") {
		t.Errorf("error does not report the failed rollback: %v", err)
	}
	// Rollback must have cleaned up providers 2..4 even though provider 1's
	// rollback failed first.
	for i := 2; i < n; i++ {
		rc, rcErr := stores[i].RowCount("items")
		if rcErr != nil {
			t.Fatal(rcErr)
		}
		if rc != 0 {
			t.Errorf("provider %d kept %d rows after rollback", i, rc)
		}
	}
	// Provider 1 holds the forked batch, and the compensating delete is
	// queued for the repair loop.
	if rc, _ := stores[1].RowCount("items"); rc != 2 {
		t.Errorf("provider 1 rows = %d, want the forked batch of 2", rc)
	}
	if c.PendingHints() != 1 {
		t.Errorf("pending hints = %d, want the queued compensating delete", c.PendingHints())
	}
	// Once deletes flow again the repair loop heals the fork.
	refuser.refuse.Store(false)
	waitConverged(t, c)
	if rc, _ := stores[1].RowCount("items"); rc != 0 {
		t.Errorf("provider 1 rows = %d after repair, want 0", rc)
	}
}

// TestDegradedWriteBelowQuorumFails: a write that cannot reach its quorum
// fails, whether the quorum is relaxed (W = 3 of 4, two providers down) or
// strict (W = N, the default, one provider down), and queues no hint.
func TestDegradedWriteBelowQuorumFails(t *testing.T) {
	for _, tc := range []struct {
		name   string
		quorum int
		down   []int
	}{
		{"W=3 two down", 3, []int{2, 3}},
		{"W=N one down", 0, []int{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFleet(t, 4, 2, Options{WriteQuorum: tc.quorum})
			setupEmployees(t, f)
			for _, p := range tc.down {
				f.faults[p].Crash()
			}
			if _, err := f.client.Exec(`INSERT INTO employees VALUES ('Nope', 1, 1)`); !errors.Is(err, ErrNotEnough) {
				t.Fatalf("insert below its quorum: %v", err)
			}
			// The failed statement must not queue hints: it never committed.
			if h := f.client.PendingHints(); h != 0 {
				t.Fatalf("failed write queued %d hints", h)
			}
		})
	}
}

// pingGate holds a provider's answers to the repair loop's pings until
// release is closed, so a test decides when a repair pass can reach it.
type pingGate struct {
	*server.Provider
	release chan struct{}
}

func (g *pingGate) Handle(req proto.Message) proto.Message {
	if _, ok := req.(*proto.PingRequest); ok {
		<-g.release
	}
	return g.Provider.Handle(req)
}

// TestDegradedScanMasksLaggingProvider pins the watermark invariant: a scan
// forced onto a provider with queued hints hides every row id at or above
// that provider's lag floor, so the K responses agree instead of exposing a
// half-replicated write. The hint kicks a repair pass, whose ping either
// fails while the provider is down (and then backs off for two hours) or
// waits at the gate: either way nothing is replayed before the scan, and
// the gate opens only after it.
func TestDegradedScanMasksLaggingProvider(t *testing.T) {
	gate := &pingGate{release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(gate.release) })
	f := newFleetWrapped(t, 3, 2, Options{WriteQuorum: 2, RepairInterval: time.Hour}, func(i int, p *server.Provider) transport.Handler {
		if i != 2 {
			return p
		}
		gate.Provider = p
		return gate
	})
	t.Cleanup(release)   // before the fleet's Close, which waits for the repair loop
	setupEmployees(t, f) // 6 rows, ids 1..6
	f.faults[2].Crash()
	f.mustExec(t, `INSERT INTO employees VALUES ('Zed', 99, 4)`) // id 7, hinted for provider 2
	f.faults[2].Recover()
	f.faults[1].Crash() // force the scan onto {0, 2}
	res := f.mustExec(t, `SELECT name FROM employees`)
	if len(res.Rows) != 6 {
		t.Fatalf("scan across a lagging provider returned %d rows, want 6 (id 7 masked)", len(res.Rows))
	}
	for _, row := range rowsAsStrings(res) {
		if row == "Zed" {
			t.Fatal("masked row leaked into the result")
		}
	}
	// After repair the same fleet serves the full table.
	release()
	f.faults[1].Recover()
	waitConverged(t, f.client)
	res = f.mustExec(t, `SELECT name FROM employees`)
	if len(res.Rows) != 7 {
		t.Fatalf("post-repair scan returned %d rows, want 7", len(res.Rows))
	}
}

// An explicit RepairNow probes a lagging provider at once, whatever backoff
// its failed probes earned: with an hour-long interval, a provider whose
// ping failed while it was down converges within a second of recovering.
func TestRepairNowIgnoresProbeBackoff(t *testing.T) {
	f := newFleet(t, 3, 2, Options{WriteQuorum: 2, RepairInterval: time.Hour})
	setupEmployees(t, f)
	f.faults[2].Crash()
	f.mustExec(t, `INSERT INTO employees VALUES ('Zed', 99, 4)`) // hinted; the hint kicks a pass
	pr := f.client.groups[0].provs[2]
	failedProbe := func() bool {
		pr.mu.Lock()
		defer pr.mu.Unlock()
		return pr.probeFails > 0
	}
	for deadline := time.Now().Add(10 * time.Second); !failedProbe(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the repair pass never probed the crashed provider")
		}
	}
	f.faults[2].Recover()
	f.client.RepairNow()
	for deadline := time.Now().Add(time.Second); !f.client.Converged(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("not converged a second after RepairNow: %d hints pending for providers %v",
				f.client.PendingHints(), f.client.LaggingProviders())
		}
	}
}

// TestDegradedWriteRecoverResync is the acceptance scenario: N=4, K=2, W=3.
// Writes keep committing while one provider is crashed; after recovery the
// repair loop drains the hints and every K-subset of providers reconstructs
// identical results with zero masked rows remaining.
func TestDegradedWriteRecoverResync(t *testing.T) {
	f := newFleet(t, 4, 2, Options{WriteQuorum: 3, RepairInterval: 10 * time.Millisecond})
	setupEmployees(t, f) // 6 rows

	f.faults[0].Crash()
	for i := 0; i < 8; i++ {
		f.mustExec(t, fmt.Sprintf(`INSERT INTO employees VALUES ('W%d', %d, 9)`, i, 100+i))
	}
	f.mustExec(t, `UPDATE employees SET salary = 21 WHERE salary = 20`) // Alice
	f.mustExec(t, `DELETE FROM employees WHERE name = 'Bob'`)
	const wantRows = 6 + 8 - 1

	if lag := f.client.LaggingProviders(); len(lag) != 1 || lag[0] != 0 {
		t.Fatalf("lagging providers = %v, want [0]", lag)
	}
	if f.client.PendingHints() == 0 {
		t.Fatal("degraded writes queued no hints")
	}
	// Reads stay available throughout the outage.
	if res := f.mustExec(t, `SELECT name FROM employees`); len(res.Rows) != wantRows {
		t.Fatalf("outage scan returned %d rows, want %d", len(res.Rows), wantRows)
	}

	f.faults[0].Recover()
	waitConverged(t, f.client)
	if h := f.client.PendingHints(); h != 0 {
		t.Fatalf("%d hints left after convergence", h)
	}
	for i, st := range f.stores {
		rc, err := st.RowCount("employees")
		if err != nil {
			t.Fatal(err)
		}
		if rc != wantRows {
			t.Errorf("provider %d holds %d rows, want %d", i, rc, wantRows)
		}
	}

	// Differential: every K-subset must reconstruct the identical result.
	var want []string
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			crashAllExcept(f, a, b)
			res := f.mustExec(t, `SELECT name, salary, dept FROM employees`)
			got := rowsAsStrings(res)
			recoverAll(f)
			if len(got) != wantRows {
				t.Fatalf("subset {%d,%d}: %d rows, want %d (masked rows remain)", a, b, len(got), wantRows)
			}
			if want == nil {
				want = got
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("subset {%d,%d} diverges at row %d: %q vs %q", a, b, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCrashDuringReplayRace flaps a provider through recover/crash cycles
// while a writer hammers inserts, so replay, fresh hinting, and readmission
// race with live statements; run under -race this doubles as a locking
// test. Afterwards every provider must hold the identical row set and no
// insert may have been double-applied.
func TestCrashDuringReplayRace(t *testing.T) {
	f := newFleet(t, 4, 2, Options{WriteQuorum: 3, RepairInterval: 5 * time.Millisecond})
	f.mustExec(t, `CREATE TABLE kv (v INT)`)
	f.faults[0].Crash()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var inserted atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := f.client.Exec(fmt.Sprintf(`INSERT INTO kv VALUES (%d)`, i%1000)); err != nil {
				t.Errorf("writer failed mid-outage: %v", err)
				return
			}
			inserted.Add(1)
		}
	}()

	for cycle := 0; cycle < 6; cycle++ {
		time.Sleep(15 * time.Millisecond) // build a backlog of hints
		f.faults[0].Recover()
		f.client.RepairNow()
		time.Sleep(7 * time.Millisecond) // replay is likely mid-flight
		f.faults[0].Crash()
	}
	f.faults[0].Recover()
	close(stop)
	wg.Wait()

	waitConverged(t, f.client)
	want := int(inserted.Load())
	for i, st := range f.stores {
		rc, err := st.RowCount("kv")
		if err != nil {
			t.Fatal(err)
		}
		if rc != want {
			t.Errorf("provider %d holds %d rows, want %d", i, rc, want)
		}
	}
	// Differential read across disjoint subsets.
	crashAllExcept(f, 0, 1)
	left := rowsAsStrings(f.mustExec(t, `SELECT v FROM kv`))
	recoverAll(f)
	crashAllExcept(f, 2, 3)
	right := rowsAsStrings(f.mustExec(t, `SELECT v FROM kv`))
	recoverAll(f)
	if len(left) != want || len(right) != want {
		t.Fatalf("subset scans returned %d and %d rows, want %d", len(left), len(right), want)
	}
	for i := range left {
		if left[i] != right[i] {
			t.Fatalf("subsets diverge at row %d: %q vs %q", i, left[i], right[i])
		}
	}
}

// TestHintJournalReplayAfterRestart drives the durable path: hints queued
// against an unreachable provider survive a full client restart (WAL
// reload) and are replayed by the new client's repair loop.
func TestHintJournalReplayAfterRestart(t *testing.T) {
	base := t.TempDir()
	opts := Options{
		K:              2,
		MasterKey:      []byte("test master key"),
		WriteQuorum:    2,
		HintDir:        filepath.Join(base, "hints"),
		RepairInterval: 10 * time.Millisecond,
	}
	openFleet := func() ([]*store.Store, []*transport.FaultyConn, []transport.Conn) {
		stores := make([]*store.Store, 3)
		faults := make([]*transport.FaultyConn, 3)
		conns := make([]transport.Conn, 3)
		for i := range stores {
			dir := filepath.Join(base, fmt.Sprintf("provider-%d", i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = st
			faults[i] = transport.NewFaulty(transport.NewLocal(server.New(st)))
			conns[i] = faults[i]
		}
		return stores, faults, conns
	}

	// Session 1: write through an outage, then die with hints queued.
	stores, faults, conns := openFleet()
	c1, err := New(conns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec(`CREATE TABLE logs (line VARCHAR(8))`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec(`INSERT INTO logs VALUES ('a'), ('b')`); err != nil {
		t.Fatal(err)
	}
	faults[1].Crash()
	if _, err := c1.Exec(`INSERT INTO logs VALUES ('c'), ('d'), ('e')`); err != nil {
		t.Fatal(err)
	}
	if c1.PendingHints() == 0 {
		t.Fatal("degraded insert queued no hints")
	}
	catalog, err := c1.ExportCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Session 2: the provider is back; the reloaded journal must drive it
	// to parity without any statement running.
	stores, _, conns = openFleet()
	c2, err := New(conns, opts)
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
	if c2.PendingHints() == 0 && !c2.Converged() {
		t.Fatal("journal reload left client in an inconsistent state")
	}
	waitConverged(t, c2)
	for i, st := range stores {
		rc, err := st.RowCount("logs")
		if err != nil {
			t.Fatal(err)
		}
		if rc != 5 {
			t.Errorf("provider %d holds %d rows after restart repair, want 5", i, rc)
		}
	}
	res, err := c2.Exec(`SELECT line FROM logs`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("scan returned %d rows, want 5", len(res.Rows))
	}
}

// TestMerkleMismatchForcesReseed corrupts a recovered provider behind the
// client's back (a row vanishes below every hint's floor), so journal
// replay alone cannot converge it: the resync digest comparison must catch
// the divergence and trigger a full-table re-seed.
func TestMerkleMismatchForcesReseed(t *testing.T) {
	f := newFleet(t, 4, 2, Options{WriteQuorum: 3, RepairInterval: 10 * time.Millisecond})
	setupEmployees(t, f) // ids 1..6
	f.faults[1].Crash()
	f.mustExec(t, `INSERT INTO employees VALUES ('New', 70, 4)`) // hinted for provider 1
	// Sabotage: row 1 predates the outage, so no hint will ever restore it.
	if _, err := f.stores[1].Delete("employees", []uint64{1}); err != nil {
		t.Fatal(err)
	}
	f.faults[1].Recover()
	waitConverged(t, f.client)
	for i, st := range f.stores {
		rc, err := st.RowCount("employees")
		if err != nil {
			t.Fatal(err)
		}
		if rc != 7 {
			t.Errorf("provider %d holds %d rows, want 7", i, rc)
		}
	}
	// The reseeded provider serves correct values: read through it.
	crashAllExcept(f, 1, 2)
	res := f.mustExec(t, `SELECT name, salary FROM employees WHERE name = 'John'`)
	recoverAll(f)
	got := rowsAsStrings(res)
	if len(got) != 2 || got[0] != "John,10" || got[1] != "John,35" {
		t.Fatalf("post-reseed read through provider 1: %v", got)
	}
}
