package client

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sssdb/internal/proto"
	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

func loadSequence(t *testing.T, c *Client, rows int) {
	t.Helper()
	if _, err := c.Exec(`CREATE TABLE t (v INT)`); err != nil {
		t.Fatal(err)
	}
	vals := make([][]Value, rows)
	for i := range vals {
		vals[i] = []Value{IntValue(int64(i))}
	}
	if _, err := c.InsertValues("t", vals); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotLimitPushedToEveryGroup: a LIMIT inside a transaction is pushed
// to the providers of every routed group as a superset bound, not applied to
// everything they hold after the fact.
func TestSnapshotLimitPushedToEveryGroup(t *testing.T) {
	for _, groups := range []int{1, 2} {
		c, caps := newCapturedGroups(t, groups)
		loadSequence(t, c, 60)
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		takeRequests(caps)
		res, err := tx.Exec(`SELECT v FROM t LIMIT 5`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("G=%d: %d rows under LIMIT 5", groups, len(res.Rows))
		}
		scans := 0
		for _, req := range takeRequests(caps) {
			if m, ok := req.(*proto.ScanRequest); ok {
				scans++
				if m.Limit != 5 {
					t.Errorf("G=%d: snapshot scan sent with Limit %d, want 5", groups, m.Limit)
				}
			}
		}
		if want := groups * c.K(); scans != want {
			t.Errorf("G=%d: %d scans, want %d", groups, scans, want)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAggregateWireCount: an aggregate costs one AggregateRequest at each of
// K providers per routed group for every distinct reduction among its items,
// not for every item — COUNT rides any round (every bucket carries its count)
// and SUM and AVG of a column share one — grouped or not.
func TestAggregateWireCount(t *testing.T) {
	for _, groups := range []int{1, 2} {
		c, caps := newCapturedGroups(t, groups)
		loadSequence(t, c, 40)
		for q, rounds := range map[string]int{
			`SELECT SUM(v) FROM t`:                               1,
			`SELECT COUNT(*) FROM t`:                             1,
			`SELECT COUNT(*), AVG(v), MAX(v) FROM t WHERE v > 3`: 2,
			// examples/payroll's five items: one SUM round, one MIN, one MAX.
			`SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM t`:           3,
			`SELECT v, COUNT(*), MIN(v), AVG(v) FROM t WHERE v < 9 GROUP BY v`: 2,
		} {
			takeRequests(caps)
			if _, err := c.Exec(q); err != nil {
				t.Fatal(err)
			}
			aggs := 0
			for _, req := range takeRequests(caps) {
				if _, ok := req.(*proto.AggregateRequest); ok {
					aggs++
				} else {
					t.Errorf("G=%d: %s sent a %T", groups, q, req)
				}
			}
			if want := groups * c.K() * rounds; aggs != want {
				t.Errorf("G=%d: %s issued %d AggregateRequests, want %d", groups, q, aggs, want)
			}
		}
		res, err := c.Exec(`SELECT SUM(v), MIN(v) FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		if got := rowsAsStrings(res)[0]; got != "780,0" {
			t.Errorf("G=%d: SUM, MIN = %s, want 780,0", groups, got)
		}
	}
}

// TestDropRetryAfterPartialFailure: a DROP that fails part-way (write quorum
// N, one provider down) leaves the table in the catalog, and retrying it
// completes — providers and groups that already dropped count as dropped —
// so the name can be created again.
func TestDropRetryAfterPartialFailure(t *testing.T) {
	for _, groups := range []int{1, 2} {
		f := newShardFleet(t, groups, 3, 2, Options{})
		f.mustExec(t, `CREATE TABLE t (v INT)`)
		f.mustExec(t, `INSERT INTO t VALUES (1), (2), (3), (4)`)
		f.faults[groups-1][0].Crash()
		if _, err := f.router.Exec(`DROP TABLE t`); err == nil {
			t.Fatalf("G=%d: DROP with a crashed provider and full write quorum succeeded", groups)
		}
		f.faults[groups-1][0].Recover()
		if got := f.router.Tables(); len(got) != 1 {
			t.Fatalf("G=%d: catalog after the failed DROP: %v", groups, got)
		}
		if _, err := f.router.Exec(`DROP TABLE t`); err != nil {
			t.Fatalf("G=%d: retried DROP: %v", groups, err)
		}
		if _, err := f.router.Exec(`SELECT v FROM t`); !errors.Is(err, ErrNoSuchTable) {
			t.Fatalf("G=%d: SELECT after DROP: %v", groups, err)
		}
		f.mustExec(t, `CREATE TABLE t (v INT)`)
		f.mustExec(t, `INSERT INTO t VALUES (7), (8)`)
		if res := f.mustExec(t, `SELECT COUNT(*) FROM t`); res.Rows[0][0].I != 2 {
			t.Fatalf("G=%d: re-created table holds %d rows, want 2", groups, res.Rows[0][0].I)
		}
	}
}

// TestOneTxLogPerClient pins the on-disk layout under HintDir: one group
// keeps its hint journals and the transaction log directly under it; several
// keep journals in group-g subdirectories and still write exactly one
// transaction log, at the root. A stray empty log left in a group directory
// by an older client is neither read nor written.
func TestOneTxLogPerClient(t *testing.T) {
	open := func(t *testing.T, groups int, dir string) *Client {
		t.Helper()
		conns := make([][]transport.Conn, groups)
		for g := range conns {
			for i := 0; i < 3; i++ {
				st, err := store.Open("")
				if err != nil {
					t.Fatal(err)
				}
				conns[g] = append(conns[g], transport.NewLocal(server.New(st)))
			}
		}
		c, err := NewSharded(conns, Options{K: 2, MasterKey: []byte("k"), HintDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	files := func(dir string) string {
		var out []string
		filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				rel, _ := filepath.Rel(dir, path)
				out = append(out, rel)
			}
			return nil
		})
		return fmt.Sprint(out)
	}
	commit := func(t *testing.T, c *Client) {
		t.Helper()
		if _, err := c.Exec(`CREATE TABLE t (v INT)`); err != nil {
			t.Fatal(err)
		}
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(`INSERT INTO t VALUES (1), (2), (3), (4), (5), (6)`); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	one := t.TempDir()
	c := open(t, 1, one)
	commit(t, c)
	c.Close()
	if got, want := files(one), "[hints-0.wal hints-1.wal hints-2.wal txlog.wal]"; got != want {
		t.Errorf("one group left %s, want %s", got, want)
	}

	two := t.TempDir()
	stray := filepath.Join(two, "group-1", txLogName)
	if err := os.MkdirAll(filepath.Dir(stray), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stray, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c = open(t, 2, two)
	commit(t, c)
	c.Close()
	want := "[group-0/hints-0.wal group-0/hints-1.wal group-0/hints-2.wal " +
		"group-1/hints-0.wal group-1/hints-1.wal group-1/hints-2.wal group-1/txlog.wal txlog.wal]"
	if got := files(two); got != want {
		t.Errorf("two groups left %s, want %s", got, want)
	}
	if data, err := os.ReadFile(stray); err != nil || len(data) != 0 {
		t.Errorf("stray group log: %d bytes, %v; want it left empty", len(data), err)
	}
	// Reopening over the same directories recovers cleanly.
	open(t, 2, two).Close()
}

// TestGoldenCatalogs: catalogs exported by the commit before the one-pipeline
// client — one unsharded, one over two groups with a shard-keyed table —
// import and re-export byte for byte, and neither imports under the other's
// group count.
func TestGoldenCatalogs(t *testing.T) {
	golden := map[int]string{1: "catalog_unsharded.golden.json", 2: "catalog_2group.golden.json"}
	for groups, name := range golden {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		f := newShardFleet(t, groups, 3, 2, Options{})
		if err := f.router.ImportCatalog(data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := f.router.ExportCatalog()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			t.Errorf("%s re-exported differently:\n%s", name, out)
		}
		other := newShardFleet(t, 3-groups, 3, 2, Options{})
		if err := other.router.ImportCatalog(data); !errors.Is(err, ErrBadSchema) {
			t.Errorf("%s into %d group(s): %v, want ErrBadSchema", name, 3-groups, err)
		}
		if got := other.router.Tables(); len(got) != 0 {
			t.Errorf("rejected import left tables %v", got)
		}
	}
}

// TestConcurrentGroupEncodes: at G = 2 both groups encode through the one
// order-preserving scheme of each domain. Bulk inserts split by the two
// groups' encode workers run beside GROUP BYs that reconstruct keys through
// the same scheme's memo; run it under -race. Every read succeeds, and the
// last one counts exactly what was inserted.
func TestConcurrentGroupEncodes(t *testing.T) {
	const depts, batch, batches = 16, 1024, 3
	f := newShardFleet(t, 2, 3, 2, Options{ParallelWorkers: 2})
	c := f.router
	if _, err := c.Exec(`CREATE TABLE t (id INT, dept INT)`); err != nil {
		t.Fatal(err)
	}
	id, dept := &c.cat.tables["t"].Cols[0], &c.cat.tables["t"].Cols[1]
	if id.oppSch != dept.oppSch || c.domains[id.domain] != id.oppSch {
		t.Fatal("the INT columns do not share their domain's one scheme")
	}
	insert := func(b int) error {
		rows := make([][]Value, batch)
		for i := range rows {
			n := int64(b*batch + i)
			rows[i] = []Value{IntValue(n), IntValue(n % depts)}
		}
		_, err := c.InsertValues("t", rows)
		return err
	}
	if err := insert(0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for b := 1; b < batches; b++ {
			if err := insert(b); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	countByDept := func() (map[int64]int64, error) {
		res, err := c.Exec(`SELECT dept, COUNT(*) FROM t GROUP BY dept`)
		if err != nil {
			return nil, err
		}
		out := map[int64]int64{}
		for _, row := range res.Rows {
			if row[0].I < 0 || row[0].I >= depts {
				return nil, fmt.Errorf("GROUP BY key %d outside [0, %d)", row[0].I, depts)
			}
			out[row[0].I] = row[1].I
		}
		return out, nil
	}
	for writing := true; writing; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		if _, err := countByDept(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := countByDept()
	if err != nil {
		t.Fatal(err)
	}
	for d := int64(0); d < depts; d++ {
		if want := int64(batch * batches / depts); got[d] != want {
			t.Errorf("dept %d: COUNT(*) = %d, want %d", d, got[d], want)
		}
	}
}

// TestHintDirOfOldFormatRefused attaches clients to HintDirs written by the
// commits before each format change (testdata/format-v1: per-row encodings;
// testdata/format-v2: row blocks of 24-byte shares, specs without widths): a
// hint journal and a transaction log. Neither may be replayed, skipped or
// half-decoded: New fails naming the format.
func TestHintDirOfOldFormatRefused(t *testing.T) {
	for _, format := range []string{"format-v1", "format-v2"} {
		for name, file := range map[string]string{"hints": "hints-0.wal", "txlog": txLogName} {
			dir := t.TempDir()
			data, err := os.ReadFile(filepath.Join("testdata", format, name, file))
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, file), data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			var conns []transport.Conn
			for i := 0; i < 3; i++ {
				st, err := store.Open("")
				if err != nil {
					t.Fatal(err)
				}
				conns = append(conns, transport.NewLocal(server.New(st)))
			}
			c, err := New(conns, Options{K: 2, MasterKey: []byte("k"), HintDir: dir})
			if err == nil {
				c.Close()
				t.Fatalf("%s/%s: a client attached to an old-format HintDir", format, name)
			}
			if !errors.Is(err, proto.ErrOldFormat) {
				t.Errorf("%s/%s: refused with %v, which does not name the format", format, name, err)
			}
		}
	}
}
