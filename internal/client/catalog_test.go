package client

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

func TestCatalogExportImportRoundTrip(t *testing.T) {
	// Two clients sharing providers and master key: the second resumes from
	// the first's exported catalog.
	stores := make([]*store.Store, 3)
	for i := range stores {
		st, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	mkClient := func() *Client {
		t.Helper()
		conns := make([]transport.Conn, len(stores))
		for i, st := range stores {
			conns[i] = transport.NewLocal(server.New(st))
		}
		c, err := New(conns, Options{K: 2, MasterKey: []byte("catalog key")})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	c1 := mkClient()
	mustExecC := func(c *Client, q string) *Result {
		t.Helper()
		res, err := c.Exec(q)
		if err != nil {
			t.Fatalf("Exec(%q): %v", q, err)
		}
		return res
	}
	mustExecC(c1, `CREATE TABLE emp (name VARCHAR(8), salary DECIMAL(2), dept INT, photo BLOB)`)
	mustExecC(c1, `CREATE PUBLIC TABLE pub (zip INT, info BLOB)`)
	mustExecC(c1, `INSERT INTO emp VALUES ('JOHN', 100.50, 1, 'blob'), ('ALICE', 200.00, 2, 'blob2')`)
	mustExecC(c1, `INSERT INTO pub VALUES (94103, 'public info')`)
	blob, err := c1.ExportCatalog()
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Fresh client session: without the catalog it cannot query.
	c2 := mkClient()
	defer c2.Close()
	if _, err := c2.Exec(`SELECT * FROM emp`); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("pre-import query: %v", err)
	}
	if err := c2.ImportCatalog(blob); err != nil {
		t.Fatal(err)
	}
	res := mustExecC(c2, `SELECT name, salary FROM emp WHERE salary BETWEEN 50.00 AND 150.00`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "JOHN" || res.Rows[0][1].Format() != "100.50" {
		t.Fatalf("got %v", res.Rows)
	}
	// Blob decryption still works (same master key).
	res = mustExecC(c2, `SELECT photo FROM emp WHERE name = 'ALICE'`)
	if string(res.Rows[0][0].B) != "blob2" {
		t.Fatalf("blob: %q", res.Rows[0][0].B)
	}
	// Public table survives too, including its public (raw) blob handling.
	res = mustExecC(c2, `SELECT info FROM pub WHERE zip = 94103`)
	if string(res.Rows[0][0].B) != "public info" {
		t.Fatalf("public blob: %q", res.Rows[0][0].B)
	}
	// Row-id counter resumed: inserts do not collide with existing rows.
	mustExecC(c2, `INSERT INTO emp VALUES ('BOB', 300.00, 3, 'b3')`)
	res = mustExecC(c2, `SELECT COUNT(*) FROM emp`)
	if res.Rows[0][0].I != 3 {
		t.Fatalf("count after resumed insert: %v", res.Rows[0][0])
	}
}

// badCatalogs are catalogs ImportCatalog refuses, by the group count each
// claims. All but the first two hold a schema CREATE TABLE refuses too.
var badCatalogs = []struct {
	name   string
	groups int
	data   string
}{
	{"not json", 1, `{not json`},
	{"bad version", 1, `{"version": 99}`},
	{"bad type", 1, `{"version": 1, "tables": [{"name": "t", "columns": [{"name": "a", "type": "WAT"}]}]}`},
	{"no columns", 1, `{"version": 1, "tables": [{"name": "t", "columns": []}]}`},
	{"table named twice", 1, `{"version": 1, "tables": [{"name": "t", "columns": [{"name": "a", "type": "INT"}]}, {"name": "t", "columns": [{"name": "b", "type": "BLOB"}]}]}`},
	{"duplicate column", 1, `{"version": 1, "tables": [{"name": "v", "columns": [{"name": "a", "type": "INT"}, {"name": "a", "type": "INT"}]}]}`},
	{"empty table name", 1, `{"version": 1, "tables": [{"name": "", "columns": [{"name": "a", "type": "INT"}]}]}`},
	{"empty column name", 1, `{"version": 1, "tables": [{"name": "t", "columns": [{"name": "", "type": "INT"}]}]}`},
	{"BLOB shard key", 2, `{"version": 1, "tables": [{"name": "t", "columns": [{"name": "a", "type": "INT"}, {"name": "b", "type": "BLOB"}]}],
	  "sharding": {"groups": 2, "tables": [{"table": "t", "column": "b", "version": 1, "next_ids": [1, 1]}]}}`},
}

// TestImportCatalogRejectsBadInput: the catalog is input from outside the
// program (dasql, dasload and dasaudit read it with -catalog), so a file
// that is not a catalog, or that holds a schema CREATE TABLE refuses, is
// refused and nothing of it is applied.
func TestImportCatalogRejectsBadInput(t *testing.T) {
	for i, tc := range badCatalogs {
		t.Run(tc.name, func(t *testing.T) {
			c := newShardFleet(t, tc.groups, 3, 2, Options{}).router
			err := c.ImportCatalog([]byte(tc.data))
			if err == nil || (i > 0 && !errors.Is(err, ErrBadSchema)) {
				t.Errorf("import: %v, want ErrBadSchema", err)
			}
			if got := c.Tables(); len(got) != 0 {
				t.Errorf("refused import left tables %q", got)
			}
		})
	}
	f := newShardFleet(t, 2, 3, 2, Options{ShardKeys: map[string]string{"t": "b"}})
	if _, err := f.router.Exec(`CREATE TABLE t (a INT, b BLOB)`); !errors.Is(err, ErrBadSchema) {
		t.Errorf("CREATE TABLE sharded on a BLOB: %v", err)
	}
	if _, err := f.router.Exec(`CREATE TABLE v (a INT, a INT)`); !errors.Is(err, ErrBadSchema) {
		t.Errorf("CREATE TABLE with a duplicate column: %v", err)
	}
	// Conflicts with an existing table.
	f.mustExec(t, `CREATE TABLE emp (a INT)`)
	blob, err := f.router.ExportCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.router.ImportCatalog(blob); !errors.Is(err, ErrTableExists) {
		t.Errorf("conflict: %v", err)
	}
}

// FuzzImportCatalog feeds ImportCatalog arbitrary bytes under one and two
// provider groups. Either the import fails and the catalog is as it was, or
// it lands and its export is a fixed point: importing that export into an
// empty catalog and exporting again gives the same bytes. Import calls no
// provider, so each input starts from an emptied catalog.
func FuzzImportCatalog(f *testing.F) {
	clients := []*Client{
		newFleet(f, 3, 2, Options{}).client,
		newShardFleet(f, 2, 3, 2, Options{ShardKeys: map[string]string{"emp": "id"}}).router,
	}
	forget := func(c *Client) {
		c.cat.mu.Lock()
		clear(c.cat.tables)
		c.cat.mu.Unlock()
	}
	for _, c := range clients {
		for _, q := range []string{
			`CREATE TABLE emp (id INT, name VARCHAR(8), salary DECIMAL(2), photo BLOB)`,
			`CREATE PUBLIC TABLE pub (zip INT, info BLOB)`,
			`INSERT INTO emp VALUES (1, 'JOHN', 100.50, 'p1'), (2, 'ALICE', 200.00, 'p2')`,
		} {
			if _, err := c.Exec(q); err != nil {
				f.Fatal(err)
			}
		}
		data, err := c.ExportCatalog()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		forget(c)
	}
	for _, tc := range badCatalogs {
		f.Add([]byte(tc.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range clients {
			if err := c.ImportCatalog(data); err != nil {
				if got := c.Tables(); len(got) != 0 {
					t.Fatalf("%d group(s): refused import (%v) left tables %q", len(c.groups), err, got)
				}
				continue
			}
			out, err := c.ExportCatalog()
			forget(c)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.ImportCatalog(out); err != nil {
				t.Fatalf("%d group(s): re-import of an export: %v\n%s", len(c.groups), err, out)
			}
			again, err := c.ExportCatalog()
			forget(c)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, out) {
				t.Fatalf("%d group(s): export changed across a round trip:\n%s\nthen\n%s", len(c.groups), out, again)
			}
		}
	})
}

func TestExportCatalogDeterministicOrder(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE zebra (a INT)`)
	f.mustExec(t, `CREATE TABLE apple (a INT)`)
	blob, err := f.client.ExportCatalog()
	if err != nil {
		t.Fatal(err)
	}
	s := string(blob)
	if strings.Index(s, "apple") > strings.Index(s, "zebra") {
		t.Fatal("catalog tables not sorted")
	}
	if strings.Contains(s, "MasterKey") || strings.Contains(s, "master") {
		t.Fatal("catalog leaks key material")
	}
}

func TestCatalogDifferentKeyCannotDecrypt(t *testing.T) {
	// A catalog in the wrong hands (without the master key) is useless:
	// shares reconstruct to garbage or fail outright.
	st := make([]*store.Store, 3)
	for i := range st {
		s, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		st[i] = s
	}
	mk := func(key string) *Client {
		conns := make([]transport.Conn, len(st))
		for i, s := range st {
			conns[i] = transport.NewLocal(server.New(s))
		}
		c, err := New(conns, Options{K: 2, MasterKey: []byte(key)})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	owner := mk("right key")
	if _, err := owner.Exec(`CREATE TABLE t (v INT, secret BLOB)`); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Exec(`INSERT INTO t VALUES (42, 'the secret')`); err != nil {
		t.Fatal(err)
	}
	blob, err := owner.ExportCatalog()
	if err != nil {
		t.Fatal(err)
	}
	owner.Close()

	thief := mk("wrong key")
	defer thief.Close()
	if err := thief.ImportCatalog(blob); err != nil {
		t.Fatal(err)
	}
	// Exact-match with the wrong key produces wrong share constants: no rows.
	res, err := thief.Exec(`SELECT v FROM t WHERE v = 42`)
	if err == nil && len(res.Rows) > 0 && res.Rows[0][0].I == 42 {
		t.Fatal("wrong key still found the right rows")
	}
	// A full scan either fails to decode or yields wrong values/blobs.
	res, err = thief.Exec(`SELECT v, secret FROM t`)
	if err == nil {
		for _, row := range res.Rows {
			if row[0].I == 42 {
				t.Fatal("wrong key reconstructed the right value")
			}
			if string(row[1].B) == "the secret" {
				t.Fatal("wrong key decrypted the blob")
			}
		}
	}
}

func TestCatalogJSONShape(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE t (name VARCHAR(8), amount DECIMAL(2))`)
	blob, err := f.client.ExportCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"VARCHAR"`, `"DECIMAL"`, `"arg": 8`, `"arg": 2`, `"version": 1`} {
		if !strings.Contains(string(blob), want) {
			t.Fatalf("catalog missing %s:\n%s", want, blob)
		}
	}
}
