package client

import (
	"fmt"
	mrand "math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sssdb/internal/proto"
	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

// writeSequence draws a seeded INSERT/UPDATE/DELETE sequence over
// t (k INT, name VARCHAR(8), v INT, note BLOB). With pointOnly every
// statement that draws share randomness — INSERT and UPDATE — touches a
// single group of a fleet sharded on k: one row per INSERT, UPDATEs by k.
// (Groups a statement reaches together encode concurrently, and the order
// they draw from a shared Options.Rand in is not deterministic.)
func writeSequence(seed int64, steps int, pointOnly bool) []string {
	rng := mrand.New(mrand.NewSource(seed))
	names := []string{"Ann", "Bo", "Cy", "Dee", "Eve"}
	var out []string
	for i := 0; i < steps; i++ {
		k := rng.Intn(12)
		switch op := rng.Intn(10); {
		case op < 5:
			rows := 1
			if !pointOnly {
				rows = 1 + rng.Intn(4)
			}
			vals := make([]string, rows)
			for r := range vals {
				vals[r] = fmt.Sprintf("(%d, '%s', %d, 'note %d')", k+r, names[rng.Intn(len(names))], rng.Intn(100), i)
			}
			out = append(out, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
		case op < 8:
			where := fmt.Sprintf("k = %d", k)
			if !pointOnly && op == 7 {
				lo := rng.Intn(100)
				where = fmt.Sprintf("v BETWEEN %d AND %d", lo, lo+30)
			}
			out = append(out, fmt.Sprintf("UPDATE t SET v = %d, note = 'upd %d' WHERE %s", rng.Intn(100), i, where))
		case op == 8:
			out = append(out, fmt.Sprintf("DELETE FROM t WHERE k = %d", k))
		default:
			out = append(out, fmt.Sprintf("DELETE FROM t WHERE v > %d", 80+rng.Intn(20)))
		}
	}
	return out
}

// dumpCells renders every row a provider stores — id and every stored cell,
// from a full scan of every column — in id order.
func dumpCells(t *testing.T, st *store.Store, table string) string {
	t.Helper()
	resp, err := st.Scan(table, nil, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	rows := resp.Rows
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", resp.Columns)
	for _, row := range rows {
		fmt.Fprintf(&b, "%d: %x\n", row.ID, row.Cells)
	}
	return b.String()
}

// TestWritePathsAgree: one seeded INSERT/UPDATE/DELETE sequence runs on two
// fleets with the same deterministic share randomness — statement by
// statement through Exec on one, as one-statement transactions on the other
// — and every provider must end holding identical cells. Autocommit and
// Commit lower a write through the same engine.lower, so they send the same
// messages; only the delivery (one write round vs a 2PC) differs.
func TestWritePathsAgree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		groups int
		opts   Options
	}{
		{"G=1", 1, Options{}},
		{"G=2 sharded on k", 2, Options{Shards: 2, ShardKeys: map[string]string{"t": "k"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fleets [2]*shardFleet
			for i := range fleets {
				opts := tc.opts
				opts.Rand = mrand.New(mrand.NewSource(23))
				opts.ParallelWorkers = 1
				fleets[i] = newShardFleet(t, tc.groups, 3, 2, opts)
				fleets[i].mustExec(t, `CREATE TABLE t (k INT, name VARCHAR(8), v INT, note BLOB)`)
			}
			auto, txs := fleets[0], fleets[1]
			for _, q := range writeSequence(29, 120, tc.groups > 1) {
				auto.mustExec(t, q)
				tx, err := txs.router.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Exec(q); err != nil {
					t.Fatalf("tx.Exec(%q): %v", q, err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("Commit(%q): %v", q, err)
				}
			}
			rows := 0
			for g := range auto.stores {
				for p := range auto.stores[g] {
					want := dumpCells(t, auto.stores[g][p], "t")
					if got := dumpCells(t, txs.stores[g][p], "t"); got != want {
						t.Errorf("group %d provider %d: transactions stored\n%s\nautocommit stored\n%s", g, p, got, want)
					}
				}
				n, err := auto.stores[g][0].RowCount("t")
				if err != nil {
					t.Fatal(err)
				}
				rows += n
			}
			if rows == 0 {
				t.Fatal("the sequence left no rows to compare")
			}
		})
	}
}

// insertGate holds a provider's answer to INSERTs, once armed, until release
// is closed, and reports each one that arrives.
type insertGate struct {
	*server.Provider
	armed   atomic.Bool
	arrived chan struct{}
	release chan struct{}
}

func (g *insertGate) Handle(req proto.Message) proto.Message {
	if _, ok := req.(*proto.InsertRequest); ok && g.armed.Load() {
		g.arrived <- struct{}{}
		<-g.release
	}
	return g.Provider.Handle(req)
}

// TestAuditWaitsOutHalfLandedInsert: an audit compares row sets across
// providers, so it must not run while an INSERT — which holds the statement
// lock shared — has landed on some providers only. Under a shared lock it
// would outvote provider 2, which is honest but not yet reached.
func TestAuditWaitsOutHalfLandedInsert(t *testing.T) {
	gate := &insertGate{arrived: make(chan struct{}, 1), release: make(chan struct{})}
	f := newFleetWrapped(t, 3, 2, Options{}, func(i int, p *server.Provider) transport.Handler {
		if i != 2 {
			return p
		}
		gate.Provider = p
		return gate
	})
	setupEmployees(t, f)
	gate.armed.Store(true)
	inserted := make(chan error, 1)
	go func() {
		_, err := f.client.Exec(`INSERT INTO employees VALUES ('Zed', 99, 4)`)
		inserted <- err
	}()
	<-gate.arrived // on providers 0 and 1, held at provider 2

	type audit struct {
		report *AuditReport
		err    error
	}
	audited := make(chan audit, 1)
	go func() {
		report, err := f.client.Audit("employees")
		audited <- audit{report, err}
	}()
	// Wait until the audit has either finished — beside the half-landed
	// insert — or queued for the exclusive statement lock, which turns away
	// new shared holders.
	var got audit
	for e := f.client.groups[0]; got.report == nil && got.err == nil; {
		select {
		case got = <-audited:
			continue
		default:
		}
		if !e.mu.TryRLock() {
			break
		}
		e.mu.RUnlock()
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	if got.report == nil && got.err == nil {
		got = <-audited
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.report.Rows != 7 || len(got.report.Faulty) != 0 {
		t.Fatalf("audit beside a half-landed insert: %d rows, faulty %v; want 7 rows, none faulty",
			got.report.Rows, got.report.Faulty)
	}
}

// TestCloseFlushesLazyUpdates: Exec reports a lazy UPDATE applied, so Close
// must push it before letting go of the providers — a client re-attached to
// the same stores reads the new value.
func TestCloseFlushesLazyUpdates(t *testing.T) {
	f := newFleet(t, 3, 2, Options{LazyUpdates: true})
	setupEmployees(t, f)
	if res := f.mustExec(t, `UPDATE employees SET salary = 99 WHERE name = 'Bob'`); res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	catalog, err := f.client.ExportCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.client.Close(); err != nil {
		t.Fatal(err)
	}
	conns := make([]transport.Conn, len(f.stores))
	for i, st := range f.stores {
		conns[i] = transport.NewLocal(server.New(st))
	}
	c2, err := New(conns, Options{K: 2, MasterKey: []byte("test master key")})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.ImportCatalog(catalog); err != nil {
		t.Fatal(err)
	}
	res, err := c2.Exec(`SELECT salary FROM employees WHERE name = 'Bob'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rowsAsStrings(res)); got != "[99]" {
		t.Fatalf("after Close and re-attach Bob's salary is %s, want [99]", got)
	}
}
