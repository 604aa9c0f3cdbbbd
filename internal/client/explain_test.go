package client

import (
	"fmt"
	"strings"
	"testing"

	"sssdb/internal/sql"
)

func planText(t *testing.T, f interface {
	mustExec(testing.TB, string) *Result
}, q string) string {
	t.Helper()
	res := f.mustExec(t, q)
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("explain columns: %v", res.Columns)
	}
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(row[0].S)
		sb.WriteString("\n")
	}
	return sb.String()
}

func TestExplainScan(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	plan := planText(t, f, `EXPLAIN SELECT name FROM employees WHERE salary BETWEEN 10 AND 40 AND dept = 1 LIMIT 5`)
	for _, want := range []string{
		"share-range filter", `"salary"#o`, "2 of 3 providers",
		"1 residual predicate", "LIMIT 5", "client-side",
	} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}
	// Equality uses the equality filter and pushes the limit.
	plan = planText(t, f, `EXPLAIN SELECT name FROM employees WHERE name = 'John' LIMIT 5`)
	if !strings.Contains(plan, "share-equality") || !strings.Contains(plan, "pushed to providers") {
		t.Fatalf("plan:\n%s", plan)
	}
}

func TestExplainEmptyPredicate(t *testing.T) {
	f := newFleet(t, 3, 2, Options{IntBits: 16})
	f.mustExec(t, `CREATE TABLE t (a INT)`)
	plan := planText(t, f, `EXPLAIN SELECT a FROM t WHERE a < -32768`)
	if !strings.Contains(plan, "provably empty") {
		t.Fatalf("plan:\n%s", plan)
	}
}

func TestExplainAggregates(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	plan := planText(t, f, `EXPLAIN SELECT SUM(salary) FROM employees WHERE salary > 0`)
	if !strings.Contains(plan, "provider-side partials") || !strings.Contains(plan, "share additivity") {
		t.Fatalf("plan:\n%s", plan)
	}
	// Residuals force the client-side path.
	plan = planText(t, f, `EXPLAIN SELECT SUM(salary) FROM employees WHERE salary > 0 AND dept = 1`)
	if !strings.Contains(plan, "CLIENT-SIDE") {
		t.Fatalf("plan:\n%s", plan)
	}
}

func TestExplainGroupBy(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	plan := planText(t, f, `EXPLAIN SELECT dept, COUNT(*) FROM employees GROUP BY dept HAVING COUNT(*) > 1`)
	for _, want := range []string{"provider-side partials", "align positionally", "HAVING: 1 conjunct"} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}
	// MIN/MAX/MEDIAN are bucket reductions like the rest; a residual predicate
	// is what moves a GROUP BY client-side.
	plan = planText(t, f, `EXPLAIN SELECT dept, MEDIAN(salary) FROM employees GROUP BY dept`)
	if !strings.Contains(plan, "provider-side partials") {
		t.Fatalf("plan:\n%s", plan)
	}
	plan = planText(t, f, `EXPLAIN SELECT dept, MEDIAN(salary) FROM employees WHERE salary > 0 AND dept = 1 GROUP BY dept`)
	if !strings.Contains(plan, "CLIENT-SIDE") {
		t.Fatalf("plan:\n%s", plan)
	}
}

func TestExplainJoin(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE a (k INT, x INT)`)
	f.mustExec(t, `CREATE TABLE b (k INT, y INT)`)
	f.mustExec(t, `CREATE TABLE c (k VARCHAR(4), y INT)`)
	plan := planText(t, f, `EXPLAIN SELECT * FROM a JOIN b ON a.k = b.k`)
	if !strings.Contains(plan, "provider-side share-equality index join") || !strings.Contains(plan, `looks each row up in b's "k"#o index`) {
		t.Fatalf("plan:\n%s", plan)
	}
	plan = planText(t, f, `EXPLAIN SELECT a.x FROM a JOIN c ON a.k = c.k`)
	if !strings.Contains(plan, "CLIENT-SIDE fallback") || !strings.Contains(plan, "domains differ") {
		t.Fatalf("plan:\n%s", plan)
	}
	// EXPLAIN says where a join's LIMIT applies.
	for q, want := range map[string]string{
		`EXPLAIN SELECT a.x FROM a JOIN b ON a.k = b.k LIMIT 2`:                    "LIMIT 2: pushed to providers (each stops after 2 pairs)",
		`EXPLAIN SELECT a.x FROM a JOIN b ON a.k = b.k WHERE b.y > 1 LIMIT 2`:      "LIMIT 2: applied client-side to the locally joined pairs",
		`EXPLAIN SELECT k, COUNT(*) FROM a GROUP BY k HAVING COUNT(*) > 1 LIMIT 3`: "LIMIT 3: applied client-side to the buckets in key order, after HAVING",
	} {
		if plan := planText(t, f, q); !strings.Contains(plan, want) {
			t.Errorf("%s: plan lacks %q:\n%s", q, want, plan)
		}
	}
}

func TestExplainVerified(t *testing.T) {
	f := newFleet(t, 4, 2, Options{})
	setupEmployees(t, f)
	plan := planText(t, f, `EXPLAIN SELECT name FROM employees WHERE salary > 0 VERIFIED`)
	for _, want := range []string{"Merkle completeness proof", "all 4"} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}
	// A proof covers the whole range, so a verified read never pushes its
	// LIMIT: scanTable truncates the verified result.
	plan = planText(t, f, `EXPLAIN SELECT name FROM employees WHERE salary > 10 LIMIT 2 VERIFIED`)
	if !strings.Contains(plan, "LIMIT 2: applied client-side (a completeness proof covers the whole range)") {
		t.Fatalf("verified LIMIT not explained as client-side:\n%s", plan)
	}
}

func TestExplainDoesNotExecute(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		f := newFleet(t, 3, 2, Options{LazyUpdates: lazy})
		setupEmployees(t, f)
		if lazy {
			// A buffered row EXPLAIN must neither flush nor add to.
			f.mustExec(t, `UPDATE employees SET dept = 7 WHERE name = 'Bob'`)
		}
		before, pending := f.client.Stats().Calls, f.client.PendingUpdates()
		for _, q := range []string{
			`EXPLAIN SELECT * FROM employees WHERE salary BETWEEN 10 AND 80`,
			`EXPLAIN SELECT name FROM employees WHERE salary > 10 LIMIT 2`,
			`EXPLAIN UPDATE employees SET dept = 9 WHERE salary > 10`,
			`EXPLAIN DELETE FROM employees WHERE salary > 10`,
		} {
			planText(t, f, q)
			if f.client.Stats().Calls != before {
				t.Fatalf("lazy %v: %s contacted providers", lazy, q)
			}
			if n := f.client.PendingUpdates(); n != pending {
				t.Fatalf("lazy %v: %s left %d updates buffered, want %d", lazy, q, n, pending)
			}
		}
	}
}

// TestExplainLazyUpdate: under LazyUpdates an UPDATE reads K providers and
// buffers the rows until Flush — its plan says so rather than "send" — and a
// LIMIT over a table with buffered rows is applied client-side.
func TestExplainLazyUpdate(t *testing.T) {
	f := newFleet(t, 3, 2, Options{LazyUpdates: true, HedgeDelay: -1})
	setupEmployees(t, f)
	const update = `UPDATE employees SET dept = 9 WHERE salary > 10`
	plan := planText(t, f, "EXPLAIN "+update)
	for _, want := range []string{
		"UPDATE employees: reconstruct the matching rows, buffer them until Flush re-shares them to all 3 providers\n",
		`SCAN employees: push share-range filter on "salary"#o (indexed) to 2 of 3 providers` + "\n",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan lacks %q:\n%s", want, plan)
		}
	}
	if strings.Contains(plan, "send") {
		t.Errorf("a lazy UPDATE's plan sends:\n%s", plan)
	}
	// The statement itself: one read round of K calls, five rows buffered.
	before := f.client.Stats().Calls
	if res := f.mustExec(t, update); res.Affected != 5 {
		t.Fatalf("affected = %d, want 5", res.Affected)
	}
	if calls := f.client.Stats().Calls - before; calls != 2 {
		t.Errorf("the lazy UPDATE made %d provider calls, want the 2 of its read round", calls)
	}
	if n := f.client.PendingUpdates(); n != 5 {
		t.Errorf("%d updates buffered, want 5", n)
	}
	plan = planText(t, f, `EXPLAIN SELECT name FROM employees WHERE salary > 10 LIMIT 2`)
	if !strings.Contains(plan, "LIMIT 2: applied client-side (buffered lazy updates may drop or add rows after the scan)") {
		t.Errorf("LIMIT over buffered rows not explained as client-side:\n%s", plan)
	}
	if err := f.client.Flush(); err != nil {
		t.Fatal(err)
	}
	if plan = planText(t, f, `EXPLAIN SELECT name FROM employees WHERE salary > 10 LIMIT 2`); !strings.Contains(plan, "LIMIT 2: pushed to providers") {
		t.Errorf("LIMIT after Flush not pushed:\n%s", plan)
	}
	if res := f.mustExec(t, `SELECT COUNT(*) FROM employees WHERE dept = 9`); res.Rows[0][0].I != 5 {
		t.Errorf("after Flush %d rows in dept 9, want 5", res.Rows[0][0].I)
	}
}

// TestExplainRoutesIn: the routing line names the predicate that routed the
// statement, so an IN whose members all hash to one group reads as an IN, not
// as a point predicate.
func TestExplainRoutesIn(t *testing.T) {
	two := newShardFleet(t, 2, 3, 2, Options{ShardKeys: map[string]string{"employees": "dept"}})
	two.mustExec(t, `CREATE TABLE employees (name VARCHAR(8), salary INT, dept INT)`)
	// Two departments the shard key sends to one group.
	groupOf := func(dept int) int {
		stmt, err := sql.Parse(fmt.Sprintf(`SELECT name FROM employees WHERE dept = %d`, dept))
		if err != nil {
			t.Fatal(err)
		}
		p, err := two.router.planSelect(stmt.(*sql.Select), nil)
		if err != nil {
			t.Fatal(err)
		}
		return p.targets[0]
	}
	a, b := 1, 2
	for groupOf(b) != groupOf(a) {
		b++
	}
	plan := planText(t, two, fmt.Sprintf(`EXPLAIN SELECT name FROM employees WHERE dept IN (%d, %d)`, a, b))
	want := `SHARD employees: IN predicate on shard key "dept" routes to 1 of 2 groups`
	if first, _, _ := strings.Cut(plan, "\n"); first != want {
		t.Errorf("routing line %q, want %q", first, want)
	}
	plan = planText(t, two, fmt.Sprintf(`EXPLAIN SELECT name FROM employees WHERE dept = %d`, a))
	want = fmt.Sprintf(`SHARD employees: point predicate on shard key "dept" routes to group %d of 2`, groupOf(a))
	if first, _, _ := strings.Cut(plan, "\n"); first != want {
		t.Errorf("routing line %q, want %q", first, want)
	}
}

func TestExplainErrors(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	if _, err := f.client.Exec(`EXPLAIN SELECT * FROM missing`); err == nil {
		t.Error("explain of missing table accepted")
	}
	if _, err := f.client.Exec(`EXPLAIN INSERT INTO t VALUES (1)`); err == nil {
		t.Error("EXPLAIN INSERT accepted")
	}
}

// TestExplainFetchedCells pins the line that says which provider cells a
// read ships: value cells of the columns the statement reads, never the
// order-preserving twin, and no cell at all when only row ids are wanted.
func TestExplainFetchedCells(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	for q, want := range map[string]string{
		`EXPLAIN SELECT * FROM employees WHERE salary > 10`:                       "  fetch name#f, salary#f, dept#f — 3 of 6 cells\n",
		`EXPLAIN SELECT salary, name FROM employees WHERE salary > 10`:            "  fetch name#f, salary#f — 2 of 6 cells\n",
		`EXPLAIN SELECT name FROM employees WHERE salary > 10 AND dept = 1`:       "  fetch name#f, dept#f — 2 of 6 cells\n",
		`EXPLAIN SELECT name FROM employees ORDER BY salary`:                      "  fetch name#f, salary#f — 2 of 6 cells\n",
		`EXPLAIN DELETE FROM employees WHERE salary > 10`:                         "  fetch row ids only — 0 of 6 cells\n",
		`EXPLAIN UPDATE employees SET dept = 2 WHERE salary > 10`:                 "  fetch name#f, salary#f, dept#f — 3 of 6 cells\n",
		`EXPLAIN SELECT name FROM employees WHERE salary > 10 VERIFIED`:           "  fetch name#o, name#f, salary#o, salary#f, dept#o, dept#f — 6 of 6 cells\n",
		`EXPLAIN SELECT MAX(salary) FROM employees WHERE salary > 1 AND dept = 1`: "  fetch salary#f, dept#f — 2 of 6 cells\n",
	} {
		if plan := planText(t, f, q); !strings.Contains(plan, want) {
			t.Errorf("%s: plan lacks %q:\n%s", q, want, plan)
		}
	}
	if plan := planText(t, f, `EXPLAIN DELETE FROM employees WHERE salary > 10`); !strings.HasPrefix(plan, "DELETE employees: ") {
		t.Errorf("DELETE plan:\n%s", plan)
	}
	if res := f.mustExec(t, `SELECT COUNT(*) FROM employees WHERE dept = 2`); res.Rows[0][0].I != 2 {
		t.Fatalf("EXPLAIN DELETE/UPDATE executed: %d rows in dept 2, want 2", res.Rows[0][0].I)
	}

	f.mustExec(t, `CREATE TABLE a (k INT, x INT)`)
	f.mustExec(t, `CREATE TABLE b (k INT, y INT)`)
	plan := planText(t, f, `EXPLAIN SELECT a.x FROM a JOIN b ON a.k = b.k`)
	for _, want := range []string{"  a: fetch x#f — 1 of 4 cells\n", "  b: fetch row ids only — 0 of 4 cells\n"} {
		if !strings.Contains(plan, want) {
			t.Errorf("join plan lacks %q:\n%s", want, plan)
		}
	}
}

// TestExplainGroups: with more than one provider group EXPLAIN prepends where
// the statement routes to the very plan text one group prints — the fetched
// cells included, per side for joins — and says how partials merge.
func TestExplainGroups(t *testing.T) {
	one := newFleet(t, 3, 2, Options{})
	two := newShardFleet(t, 2, 3, 2, Options{ShardKeys: map[string]string{"employees": "dept"}})
	for _, q := range []string{
		`CREATE TABLE employees (name VARCHAR(8), salary INT, dept INT)`,
		`CREATE TABLE a (k INT, x INT)`,
		`CREATE TABLE b (k INT, y INT)`,
	} {
		one.mustExec(t, q)
		two.mustExec(t, q)
	}
	for q, routing := range map[string]string{
		`EXPLAIN SELECT name FROM employees WHERE salary > 10 AND dept = 1 LIMIT 3`: `SHARD employees: point predicate on shard key "dept" routes to group `,
		`EXPLAIN SELECT name FROM employees WHERE dept IN (1, 2, 3, 4, 5, 6, 7, 8)`: `SHARD employees: hash-partitioned on "dept"; no point predicate — scatter-gather across 2 groups`,
		`EXPLAIN SELECT salary FROM employees ORDER BY salary`:                      `scatter-gather across 2 groups`,
		`EXPLAIN UPDATE employees SET salary = 2 WHERE salary > 10`:                 `scatter-gather across 2 groups`,
		`EXPLAIN DELETE FROM a WHERE k = 4`:                                         `SHARD a: rows hash-partitioned on insert sequence across 2 groups — scatter-gather`,
		`EXPLAIN SELECT MAX(x) FROM a WHERE k > 1 AND x < 5`:                        `SHARD a: rows hash-partitioned on insert sequence`,
	} {
		want := planText(t, one, q)
		got := planText(t, two, q)
		first, rest, _ := strings.Cut(got, "\n")
		if !strings.Contains(first, routing) {
			t.Errorf("%s: routing line %q lacks %q", q, first, routing)
		}
		if rest != want {
			t.Errorf("%s: after the routing line two groups print\n%swant one group's\n%s", q, rest, want)
		}
	}
	// Partials that merge say so.
	plan := planText(t, two, `EXPLAIN SELECT SUM(salary), MAX(salary) FROM employees`)
	if !strings.Contains(plan, "provider-side partials") || !strings.Contains(plan, "buckets of the 2 groups re-reduced by key") {
		t.Errorf("aggregate plan:\n%s", plan)
	}
	plan = planText(t, two, `EXPLAIN SELECT dept, COUNT(*) FROM employees GROUP BY dept`)
	if !strings.Contains(plan, "GROUP BY dept: provider-side partials") || !strings.Contains(plan, "buckets of the 2 groups re-reduced by key") {
		t.Errorf("GROUP BY plan:\n%s", plan)
	}
	// A MEDIAN does not merge: gathered at two groups, provider-side at one.
	if plan = planText(t, two, `EXPLAIN SELECT MEDIAN(x) FROM a`); !strings.Contains(plan, "CLIENT-SIDE") {
		t.Errorf("two-group MEDIAN plan:\n%s", plan)
	}
	if plan = planText(t, one, `EXPLAIN SELECT MEDIAN(x) FROM a`); !strings.Contains(plan, "provider-side partials") {
		t.Errorf("one-group MEDIAN plan:\n%s", plan)
	}
	// A same-domain join runs at the providers only when both sides sit in
	// one group; across groups each side is gathered, key column included.
	plan = planText(t, two, `EXPLAIN SELECT a.x FROM a JOIN b ON a.k = b.k`)
	for _, want := range []string{
		"SHARD a: rows hash-partitioned", "SHARD b: rows hash-partitioned",
		"CLIENT-SIDE fallback — the sides span 2 provider groups",
		"  a: fetch k#f, x#f — 2 of 4 cells\n", "  b: fetch k#f — 1 of 4 cells\n",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("two-group join plan lacks %q:\n%s", want, plan)
		}
	}
}
