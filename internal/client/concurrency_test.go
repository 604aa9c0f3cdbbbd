package client

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// A Client must be safe for concurrent use: Exec serializes on the client
// mutex while provider connections handle one call at a time.
func TestConcurrentExec(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE t (g INT, v INT)`)
	// Seed rows in distinct groups so workers can assert independently.
	const groups = 8
	const perGroup = 20
	for g := 0; g < groups; g++ {
		q := "INSERT INTO t VALUES "
		for i := 0; i < perGroup; i++ {
			if i > 0 {
				q += ","
			}
			q += fmt.Sprintf("(%d, %d)", g, g*1000+i)
		}
		f.mustExec(t, q)
	}
	var wg sync.WaitGroup
	errs := make(chan error, groups*3)
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				res, err := f.client.Exec(fmt.Sprintf(`SELECT COUNT(*) FROM t WHERE g = %d`, g))
				if err != nil {
					errs <- err
					return
				}
				if res.Rows[0][0].I != perGroup {
					errs <- fmt.Errorf("group %d: count %d", g, res.Rows[0][0].I)
					return
				}
				res, err = f.client.Exec(fmt.Sprintf(`SELECT SUM(v) FROM t WHERE g = %d`, g))
				if err != nil {
					errs <- err
					return
				}
				want := int64(0)
				for i := 0; i < perGroup; i++ {
					want += int64(g*1000 + i)
				}
				if res.Rows[0][0].I != want {
					errs <- fmt.Errorf("group %d: sum %d want %d", g, res.Rows[0][0].I, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Concurrent readers and writers on disjoint tables must not interfere.
func TestConcurrentMixedReadWrite(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	for w := 0; w < 4; w++ {
		f.mustExec(t, fmt.Sprintf(`CREATE TABLE t%d (v INT)`, w))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := f.client.Exec(fmt.Sprintf(`INSERT INTO t%d VALUES (%d)`, w, i)); err != nil {
					errs <- err
					return
				}
				res, err := f.client.Exec(fmt.Sprintf(`SELECT COUNT(*) FROM t%d`, w))
				if err != nil {
					errs <- err
					return
				}
				if res.Rows[0][0].I != int64(i+1) {
					errs <- fmt.Errorf("table %d: count %d after %d inserts", w, res.Rows[0][0].I, i+1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A failed insert must not fork provider state: the batch is rolled back
// off the providers it reached, and a later retry succeeds cleanly.
func TestInsertRollbackOnPartialFailure(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	f.faults[2].Crash()
	if _, err := f.client.Exec(`INSERT INTO employees VALUES ('Eve', 99, 9)`); err == nil {
		t.Fatal("insert with a crashed provider succeeded")
	}
	// The two live providers must NOT hold the row.
	for i, st := range f.stores[:2] {
		n, err := st.RowCount("employees")
		if err != nil {
			t.Fatal(err)
		}
		if n != 6 {
			t.Fatalf("provider %d holds %d rows after rollback, want 6", i, n)
		}
	}
	// Recovery: the same insert now lands everywhere.
	f.faults[2].Recover()
	if _, err := f.client.Exec(`INSERT INTO employees VALUES ('Eve', 99, 9)`); err != nil {
		t.Fatal(err)
	}
	for i, st := range f.stores {
		n, err := st.RowCount("employees")
		if err != nil {
			t.Fatal(err)
		}
		if n != 7 {
			t.Fatalf("provider %d holds %d rows after retry, want 7", i, n)
		}
	}
	res := f.mustExec(t, `SELECT salary FROM employees WHERE name = 'Eve'`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 99 {
		t.Fatalf("retried row wrong: %v", rowsAsStrings(res))
	}
}

func TestDeleteAllWithoutWhere(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	res := f.mustExec(t, `DELETE FROM employees`)
	if res.Affected != 6 {
		t.Fatalf("affected = %d", res.Affected)
	}
	out := f.mustExec(t, `SELECT COUNT(*) FROM employees`)
	if out.Rows[0][0].I != 0 {
		t.Fatalf("count = %d", out.Rows[0][0].I)
	}
	// Deleting from an empty table is a no-op, not an error.
	res = f.mustExec(t, `DELETE FROM employees`)
	if res.Affected != 0 {
		t.Fatalf("affected = %d", res.Affected)
	}
}

func TestInsertValuesBulkAPI(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE t (name VARCHAR(6), v INT)`)
	rows := [][]Value{
		{StringValue("A"), IntValue(1)},
		{StringValue("B"), IntValue(2)},
	}
	res, err := f.client.InsertValues("t", rows)
	if err != nil || res.Affected != 2 {
		t.Fatalf("InsertValues: %v %v", res, err)
	}
	if f.client.N() != 3 || f.client.K() != 2 {
		t.Fatalf("N/K accessors: %d %d", f.client.N(), f.client.K())
	}
	// Errors: missing table, bad arity, bad type.
	if _, err := f.client.InsertValues("missing", rows); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("missing table: %v", err)
	}
	if _, err := f.client.InsertValues("t", [][]Value{{IntValue(1)}}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("bad arity: %v", err)
	}
	if _, err := f.client.InsertValues("t", [][]Value{{IntValue(1), IntValue(2)}}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("bad type: %v", err)
	}
	out := f.mustExec(t, `SELECT v FROM t WHERE name = 'B'`)
	if len(out.Rows) != 1 || out.Rows[0][0].I != 2 {
		t.Fatalf("bulk rows not queryable: %v", rowsAsStrings(out))
	}
}

func TestJoinPredicateSideResolution(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE l (k INT, shared INT, lonly INT)`)
	f.mustExec(t, `CREATE TABLE r (k INT, shared INT, ronly INT)`)
	f.mustExec(t, `INSERT INTO l VALUES (1, 10, 100), (2, 20, 200)`)
	f.mustExec(t, `INSERT INTO r VALUES (1, 30, 300), (2, 40, 400)`)
	// Unqualified unambiguous predicates resolve to the owning side.
	res := f.mustExec(t, `SELECT l.k FROM l JOIN r ON l.k = r.k WHERE lonly = 100`)
	if got := rowsAsStrings(res); fmt.Sprint(got) != "[1]" {
		t.Fatalf("left-only: %v", got)
	}
	res = f.mustExec(t, `SELECT l.k FROM l JOIN r ON l.k = r.k WHERE ronly = 400`)
	if got := rowsAsStrings(res); fmt.Sprint(got) != "[2]" {
		t.Fatalf("right-only: %v", got)
	}
	// Ambiguous unqualified column must be rejected.
	if _, err := f.client.Exec(`SELECT l.k FROM l JOIN r ON l.k = r.k WHERE shared = 10`); !errors.Is(err, ErrUnsupported) {
		t.Errorf("ambiguous predicate: %v", err)
	}
	// Qualified disambiguation works on both sides.
	res = f.mustExec(t, `SELECT l.k FROM l JOIN r ON l.k = r.k WHERE l.shared = 10 AND r.shared = 30`)
	if got := rowsAsStrings(res); fmt.Sprint(got) != "[1]" {
		t.Fatalf("qualified both sides: %v", got)
	}
	// Predicate on a table not in the join.
	if _, err := f.client.Exec(`SELECT l.k FROM l JOIN r ON l.k = r.k WHERE zz.x = 1`); !errors.Is(err, ErrUnsupported) {
		t.Errorf("unjoined table predicate: %v", err)
	}
	// Select item ambiguity and unjoined-table references.
	if _, err := f.client.Exec(`SELECT shared FROM l JOIN r ON l.k = r.k`); !errors.Is(err, ErrUnsupported) {
		t.Errorf("ambiguous item: %v", err)
	}
	if _, err := f.client.Exec(`SELECT zz.x FROM l JOIN r ON l.k = r.k`); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("unjoined item: %v", err)
	}
	if _, err := f.client.Exec(`SELECT nope FROM l JOIN r ON l.k = r.k`); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("missing item: %v", err)
	}
	// ON clause must be table-qualified and reference both tables.
	if _, err := f.client.Exec(`SELECT l.k FROM l JOIN r ON k = r.k`); !errors.Is(err, ErrUnsupported) {
		t.Errorf("unqualified ON: %v", err)
	}
	if _, err := f.client.Exec(`SELECT l.k FROM l JOIN r ON l.k = l.k`); !errors.Is(err, ErrUnsupported) {
		t.Errorf("one-sided ON: %v", err)
	}
	// Self joins are unsupported.
	if _, err := f.client.Exec(`SELECT l.k FROM l JOIN l ON l.k = l.k`); !errors.Is(err, ErrUnsupported) {
		t.Errorf("self join: %v", err)
	}
}

func TestJoinSelectStar(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE a (k INT, x INT)`)
	f.mustExec(t, `CREATE TABLE b (k INT, y INT)`)
	f.mustExec(t, `INSERT INTO a VALUES (1, 10)`)
	f.mustExec(t, `INSERT INTO b VALUES (1, 20)`)
	res := f.mustExec(t, `SELECT * FROM a JOIN b ON a.k = b.k`)
	if len(res.Columns) != 4 || res.Columns[0] != "a.k" || res.Columns[3] != "b.y" {
		t.Fatalf("columns: %v", res.Columns)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].I != 10 || res.Rows[0][3].I != 20 {
		t.Fatalf("rows: %v", res.Rows)
	}
}

func TestUpdateNoMatchIsNoop(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	res := f.mustExec(t, `UPDATE employees SET salary = 1 WHERE name = 'NOBODY'`)
	if res.Affected != 0 {
		t.Fatalf("affected = %d", res.Affected)
	}
}

// Lazy updates compose: a second UPDATE over rows already pending must see
// (and modify) the pending values, not stale remote state.
func TestLazyUpdatesCompose(t *testing.T) {
	f := newFleet(t, 3, 2, Options{LazyUpdates: true})
	setupEmployees(t, f)
	f.mustExec(t, `UPDATE employees SET salary = 100 WHERE name = 'JOHN'`)
	// Wait: names are 'John' in setupEmployees; use the right case.
	res := f.mustExec(t, `UPDATE employees SET salary = 200 WHERE name = 'John'`)
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	// Second update targets the pending rows (salary now 200).
	res = f.mustExec(t, `UPDATE employees SET dept = 7 WHERE salary = 200`)
	if res.Affected != 2 {
		t.Fatalf("compose affected = %d", res.Affected)
	}
	out := f.mustExec(t, `SELECT salary, dept FROM employees WHERE name = 'John'`)
	for _, row := range out.Rows {
		if row[0].I != 200 || row[1].I != 7 {
			t.Fatalf("composed row: %v", row)
		}
	}
	if err := f.client.Flush(); err != nil {
		t.Fatal(err)
	}
	out = f.mustExec(t, `SELECT COUNT(*) FROM employees WHERE dept = 7`)
	if out.Rows[0][0].I != 2 {
		t.Fatalf("after flush: %v", out.Rows[0][0])
	}
}

// TestSelectBesidePendingUpdateAndOpenRows: a buffered lazy update leaves a
// plain SELECT a shared reader. It only reads the buffer it overlays, so it
// runs beside a Rows open on another table instead of waiting for its Close —
// which, for a caller reading inside its own Rows loop, would be forever.
func TestSelectBesidePendingUpdateAndOpenRows(t *testing.T) {
	f := newFleet(t, 3, 2, Options{LazyUpdates: true})
	setupEmployees(t, f)
	f.mustExec(t, `CREATE TABLE other (k INT)`)
	f.mustExec(t, `INSERT INTO other VALUES (1), (2)`)
	f.mustExec(t, `UPDATE employees SET salary = 99 WHERE name = 'Bob'`)
	rows, err := f.client.QueryRows(`SELECT k FROM other`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		res, err := f.client.Exec(`SELECT salary FROM employees WHERE name = 'Bob'`)
		if err == nil && fmt.Sprint(rowsAsStrings(res)) != "[99]" {
			err = fmt.Errorf("overlaid salary %v, want [99]", rowsAsStrings(res))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(2 * time.Second):
		t.Error("a plain SELECT waited over 2 s behind a Rows open on another table")
		rows.Close()
		<-done
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil || rows.Err() != nil || n != 2 {
		t.Errorf("other: %d rows, err %v", n, rows.Err())
	}
	if f.client.PendingUpdates() != 1 {
		t.Errorf("%d updates buffered, want 1", f.client.PendingUpdates())
	}
}
