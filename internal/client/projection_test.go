package client

import (
	"fmt"
	mrand "math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"sssdb/internal/proto"
	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

// capConn records what crosses one provider connection: every request, how
// many 13- or 14-byte cells — the sizes of an order-preserving share of the
// test's INT/DECIMAL and VARCHAR(8) columns, which no field share (8) or
// sealed note (≥ 28) has — came back in the responses to unverified scans
// and joins, and how many rows and cells came back to scans that asked for
// ids only.
type capConn struct {
	transport.Conn

	mu                       sync.Mutex
	reqs                     []proto.Message
	scans                    []*proto.ScanRequest
	joins                    []*proto.JoinRequest
	oppCells                 int
	idsOnlyRows, idsOnlyCell int
}

// inspectRows is inspect over a scan's response rows.
func (c *capConn) inspectRows(req proto.Message, rows []proto.Row) {
	m, _ := req.(*proto.ScanRequest)
	for _, row := range rows {
		c.inspect(row.Cells)
		if m != nil && m.IDsOnly {
			c.mu.Lock()
			c.idsOnlyRows++
			c.idsOnlyCell += len(row.Cells)
			c.mu.Unlock()
		}
	}
}

func (c *capConn) note(req proto.Message) (inspect bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reqs = append(c.reqs, req)
	switch m := req.(type) {
	case *proto.ScanRequest:
		c.scans = append(c.scans, m)
		return !m.WithProof
	case *proto.JoinRequest:
		c.joins = append(c.joins, m)
		return true
	}
	return false
}

func (c *capConn) inspect(cells [][]byte) {
	for _, cell := range cells {
		if len(cell) == 13 || len(cell) == 14 {
			c.mu.Lock()
			c.oppCells++
			c.mu.Unlock()
		}
	}
}

func (c *capConn) Call(req proto.Message) (proto.Message, error) {
	inspect := c.note(req)
	resp, err := c.Conn.Call(req)
	if inspect {
		if m, ok := resp.(*proto.RowsResponse); ok {
			c.inspectRows(req, m.Rows)
		}
	}
	return resp, err
}

func (c *capConn) CallStream(req proto.Message, yield func(*proto.RowsResponse) error) error {
	inspect := c.note(req)
	return transport.CallStream(c.Conn, req, func(chunk *proto.RowsResponse) error {
		if inspect {
			c.inspectRows(req, chunk.Rows)
		}
		return yield(chunk)
	})
}

// newCapturedFleet is a 3-provider, K=2 deployment whose every connection
// is a capConn.
func newCapturedFleet(t *testing.T) (*Client, []*capConn) {
	t.Helper()
	return newCapturedGroups(t, 1)
}

// newCapturedGroups is newCapturedFleet over the given number of groups;
// group g's provider i is caps[g*3+i].
func newCapturedGroups(t *testing.T, groups int) (*Client, []*capConn) {
	t.Helper()
	var caps []*capConn
	conns := make([][]transport.Conn, groups)
	for g := range conns {
		for i := 0; i < 3; i++ {
			st, err := store.Open("")
			if err != nil {
				t.Fatal(err)
			}
			cc := &capConn{Conn: transport.NewLocal(server.New(st))}
			caps = append(caps, cc)
			conns[g] = append(conns[g], cc)
		}
	}
	c, err := NewSharded(conns, Options{K: 2, MasterKey: []byte("test master key")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, caps
}

// takeRequests returns and clears every request the connections have seen.
func takeRequests(caps []*capConn) []proto.Message {
	var out []proto.Message
	for _, cc := range caps {
		cc.mu.Lock()
		out = append(out, cc.reqs...)
		cc.reqs = nil
		cc.mu.Unlock()
	}
	return out
}

// TestProjectionOnTheWire drives every unverified read path through
// capturing connections: no order-preserving share may reach the client,
// every scan must name the columns it wants — or say that it wants none, and
// then get back ids and not one cell — and a narrower select list must cost
// fewer bytes.
func TestProjectionOnTheWire(t *testing.T) {
	c, caps := newCapturedFleet(t)
	exec := func(q string) *Result {
		t.Helper()
		res, err := c.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	exec(`CREATE TABLE employees (name VARCHAR(8), salary INT, dept INT, note BLOB)`)
	exec(`CREATE TABLE depts (dept INT, floor INT)`)
	exec(`CREATE TABLE bonus (who VARCHAR(8), pct DECIMAL(2))`)
	for i := 0; i < 200; i++ {
		exec(fmt.Sprintf(`INSERT INTO employees VALUES ('N%d', %d, %d, 'note %d')`, i%50, i*10, i%5, i))
	}
	for d := 0; d < 5; d++ {
		exec(fmt.Sprintf(`INSERT INTO depts VALUES (%d, %d)`, d, d+10))
	}
	exec(`INSERT INTO bonus VALUES ('N1', 1.50), ('N2', 2.25)`)

	received := func(q string) uint64 {
		t.Helper()
		before := c.Stats().BytesReceived
		exec(q)
		return c.Stats().BytesReceived - before
	}
	one := received(`SELECT name FROM employees WHERE salary >= 0`)
	two := received(`SELECT name, salary FROM employees WHERE salary >= 0`)
	all := received(`SELECT * FROM employees WHERE salary >= 0`)
	if !(one < two && two < all) {
		t.Errorf("received bytes: SELECT name %d, SELECT name, salary %d, SELECT * %d; want strictly increasing", one, two, all)
	}

	for _, q := range []string{
		`SELECT * FROM employees`,
		`SELECT note FROM employees WHERE salary BETWEEN 100 AND 400`,
		`SELECT name FROM employees WHERE salary BETWEEN 100 AND 900 AND dept = 2`,
		`SELECT name FROM employees WHERE salary IN (10, 500, 1000)`,
		`SELECT name FROM employees WHERE dept = 1 ORDER BY salary DESC LIMIT 3`,
		`SELECT salary FROM employees WHERE salary > 5 LIMIT 7`,
		`SELECT MAX(salary), COUNT(*) FROM employees WHERE salary > 50 AND dept = 3`,
		`SELECT dept, MEDIAN(salary) FROM employees GROUP BY dept`,
		`SELECT employees.name, depts.floor FROM employees JOIN depts ON employees.dept = depts.dept`,
		`SELECT employees.name FROM employees JOIN depts ON employees.dept = depts.dept WHERE employees.salary < 300`,
		`SELECT employees.salary, bonus.pct FROM employees JOIN bonus ON employees.name = bonus.who`,
		`UPDATE employees SET dept = 9 WHERE salary = 70`,
		`DELETE FROM employees WHERE salary = 80`,
	} {
		exec(q)
	}
	rows, err := c.QueryRows(`SELECT name, dept FROM employees WHERE salary >= 1000`)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT name FROM employees WHERE dept = 4 LIMIT 5`,
		`UPDATE employees SET salary = 1 WHERE salary = 90`,
		`DELETE FROM employees WHERE salary = 100`,
	} {
		if _, err := tx.Exec(q); err != nil {
			t.Fatalf("tx %s: %v", q, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var scans, joins int
	for p, cc := range caps {
		if cc.oppCells != 0 {
			t.Errorf("provider %d shipped %d order-preserving shares to unverified reads", p, cc.oppCells)
		}
		for _, m := range cc.scans {
			scans++
			if (len(m.Projection) == 0) != m.IDsOnly {
				t.Errorf("provider %d: scan of %q projects %v with IDsOnly %v", p, m.Table, m.Projection, m.IDsOnly)
			}
			for _, name := range m.Projection {
				if strings.HasSuffix(name, suffixOPP) {
					t.Errorf("provider %d: scan of %q projects %q", p, m.Table, name)
				}
			}
		}
		for _, m := range cc.joins {
			joins++
			if (len(m.LeftProj) == 0) != m.LeftIDsOnly || (len(m.RightProj) == 0) != m.RightIDsOnly {
				t.Errorf("provider %d: join projects %v / %v with IDsOnly %v / %v",
					p, m.LeftProj, m.RightProj, m.LeftIDsOnly, m.RightIDsOnly)
			}
		}
	}
	if scans == 0 || joins == 0 {
		t.Fatalf("captured %d scans and %d joins; the statements above must produce both", scans, joins)
	}
	// A DELETE reads row ids alone: it asks for no cell and gets none, in or
	// out of a transaction.
	last := func(table string) *proto.ScanRequest {
		for _, cc := range caps {
			for i := len(cc.scans) - 1; i >= 0; i-- {
				if cc.scans[i].Table == table {
					return cc.scans[i]
				}
			}
		}
		return nil
	}
	exec(`DELETE FROM depts WHERE floor = 14`)
	if m := last("depts"); m == nil || len(m.Projection) != 0 || !m.IDsOnly {
		t.Errorf("DELETE's read round: %+v, want an ids-only scan", m)
	}
	// A COUNT(col) evaluated client-side reads no cell of col: its scan asks
	// for what the residual predicates test — dept's cells when a second
	// predicate keeps the count off the providers — and, when nothing does,
	// for ids alone.
	for _, tc := range []struct {
		q     string
		force bool
		want  []string
	}{
		{`SELECT COUNT(salary) FROM employees WHERE salary > 30 AND dept < 3`, false, []string{"dept#f"}},
		{`SELECT COUNT(salary) FROM employees WHERE salary > 30`, true, nil},
	} {
		seen := make([]int, len(caps))
		for p, cc := range caps {
			seen[p] = len(cc.scans)
		}
		c.SetClientSideAggregates(tc.force)
		exec(tc.q)
		c.SetClientSideAggregates(false)
		counted := 0
		for p, cc := range caps {
			for _, m := range cc.scans[seen[p]:] {
				if counted++; !slices.Equal(m.Projection, tc.want) || m.IDsOnly != (tc.want == nil) {
					t.Errorf("%s: scans %v with IDsOnly %v, want %v", tc.q, m.Projection, m.IDsOnly, tc.want)
				}
			}
		}
		if counted == 0 {
			t.Errorf("%s: sent no scan; want the client-side path", tc.q)
		}
	}
	var idRows, idCells int
	for _, cc := range caps {
		idRows, idCells = idRows+cc.idsOnlyRows, idCells+cc.idsOnlyCell
	}
	if idRows == 0 || idCells != 0 {
		t.Errorf("ids-only scans were answered with %d rows carrying %d cells; want rows and no cell", idRows, idCells)
	}

	// The detector works: a verified read does carry the order-preserving shares.
	exec(`SELECT name FROM employees WHERE salary < 100 VERIFIED`)
	for _, cc := range caps {
		cc.mu.Lock()
		cc.oppCells = 0
		for _, m := range cc.scans {
			if m.WithProof && len(m.Projection) != 0 {
				t.Errorf("verified scan projects %v, want whole rows", m.Projection)
			}
		}
		cc.mu.Unlock()
	}
	resp, err := caps[0].Conn.Call(&proto.ScanRequest{Table: "employees"})
	if err != nil {
		t.Fatal(err)
	}
	caps[0].inspect(resp.(*proto.RowsResponse).Rows[0].Cells)
	if caps[0].oppCells != 3 {
		t.Fatalf("a whole employees row shows %d order-preserving cells, want 3", caps[0].oppCells)
	}
}

// diffTarget is one deployment the projection differential runs against.
type diffTarget struct {
	name string
	exec func(q string) (*Result, error)
	// begin opens a transaction for an in-transaction read.
	begin func() (*Tx, error)
	// rows drains QueryRows (nil when the target has none worth adding).
	rows func(q string) (*Rows, error)
}

// TestProjectionDifferential compares randomly generated statements — select
// lists, residual predicates, ORDER BY, LIMIT — with their VERIFIED twins,
// which fetch whole rows and reconstruct every column through none of the
// projected pipeline. It runs on one provider group, on one group with lazy
// updates pending (the overlay mixes full pending rows into projected scan
// rows), and on a 2×3 sharded fleet; each statement also runs inside a
// transaction and through QueryRows.
func TestProjectionDifferential(t *testing.T) {
	const seed = 20260925
	const nRows = 240
	load := func(exec func(string) (*Result, error)) {
		t.Helper()
		must := func(q string) {
			t.Helper()
			if _, err := exec(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		must(`CREATE TABLE emp (id INT, name VARCHAR(6), salary INT, dept INT, note BLOB)`)
		var sb strings.Builder
		for i := 0; i < nRows; i++ {
			if i%40 == 0 {
				if sb.Len() > 0 {
					must(sb.String())
				}
				sb.Reset()
				sb.WriteString(`INSERT INTO emp VALUES `)
			} else {
				sb.WriteString(", ")
			}
			// salary is a permutation of the multiples of 3, so ORDER BY id
			// and ORDER BY salary have no ties to break.
			fmt.Fprintf(&sb, "(%d, 'N%c', %d, %d, 'note-%d')", i, 'A'+i%6, (i*77%nRows)*3, i%7, i)
		}
		must(sb.String())
	}

	single := newFleet(t, 3, 2, Options{})
	load(single.client.Exec)
	lazy := newFleet(t, 3, 2, Options{LazyUpdates: true})
	load(lazy.client.Exec)
	for _, q := range []string{
		`UPDATE emp SET dept = 3 WHERE id BETWEEN 10 AND 30`,
		`UPDATE emp SET salary = 2000 WHERE id = 100`,
		`UPDATE emp SET name = 'NZ' WHERE salary BETWEEN 300 AND 330`,
	} {
		lazy.mustExec(t, q)
	}
	if lazy.client.PendingUpdates() == 0 {
		t.Fatal("no lazy updates pending")
	}
	sharded := newShardFleet(t, 2, 3, 2, Options{Shards: 2})
	load(sharded.router.Exec)

	targets := []diffTarget{
		{name: "1 group", exec: single.client.Exec, begin: single.client.Begin, rows: single.client.QueryRows},
		{name: "1 group, lazy updates pending", exec: lazy.client.Exec, rows: lazy.client.QueryRows},
		{name: "2x3 sharded", exec: sharded.router.Exec, begin: sharded.router.Begin, rows: sharded.router.QueryRows},
	}

	rng := mrand.New(mrand.NewSource(seed))
	colNames := []string{"id", "name", "salary", "dept", "note"}
	pick := func(n int) int { return rng.Intn(n) }
	predicate := func() string {
		switch pick(9) {
		case 0:
			return fmt.Sprintf("id = %d", pick(nRows))
		case 1:
			lo := pick(nRows)
			return fmt.Sprintf("id BETWEEN %d AND %d", lo, lo+pick(120))
		case 2:
			return fmt.Sprintf("id IN (%d, %d, %d, %d)", pick(nRows), pick(nRows), pick(nRows), pick(nRows))
		case 3:
			lo := pick(3 * nRows)
			return fmt.Sprintf("salary BETWEEN %d AND %d", lo, lo+pick(400))
		case 4:
			return fmt.Sprintf("salary > %d", pick(3*nRows))
		case 5:
			return fmt.Sprintf("dept = %d", pick(7))
		case 6:
			return fmt.Sprintf("dept IN (%d, %d)", pick(7), pick(7))
		case 7:
			return fmt.Sprintf("name = 'N%c'", 'A'+pick(6))
		default:
			return "name LIKE 'N%'"
		}
	}
	statement := func() (q string, ordered, hasWhere bool) {
		list := "*"
		if pick(5) > 0 {
			n := 1 + pick(3)
			items := make([]string, n)
			for i := range items {
				items[i] = colNames[pick(len(colNames))]
			}
			list = strings.Join(items, ", ")
		}
		q = "SELECT " + list + " FROM emp"
		if n := pick(4); n > 0 {
			conj := make([]string, n)
			for i := range conj {
				conj[i] = predicate()
			}
			q += " WHERE " + strings.Join(conj, " AND ")
			hasWhere = true
		}
		if pick(3) == 0 {
			q += " ORDER BY " + []string{"id", "salary"}[pick(2)]
			if pick(2) == 0 {
				q += " DESC"
			}
			ordered = true
		}
		// Which rows a LIMIT keeps is fixed only once a predicate's index or
		// an ORDER BY fixes the order.
		if (hasWhere || ordered) && pick(5) < 2 {
			q += fmt.Sprintf(" LIMIT %d", 1+pick(25))
		}
		return q, ordered, hasWhere
	}

	for step := 0; step < 150; step++ {
		q, ordered, hasWhere := statement()
		for _, tg := range targets {
			oracle, err := tg.exec(q + " VERIFIED")
			if err != nil {
				t.Fatalf("seed %d step %d %s: %s VERIFIED: %v", seed, step, tg.name, q, err)
			}
			want := rowsAsStrings(oracle)
			if !hasWhere && !ordered {
				sort.Strings(want)
			}
			check := func(how string, res *Result) {
				t.Helper()
				if fmt.Sprint(res.Columns) != fmt.Sprint(oracle.Columns) {
					t.Fatalf("seed %d step %d %s %s: %s: columns %v, verified %v",
						seed, step, tg.name, how, q, res.Columns, oracle.Columns)
				}
				got := rowsAsStrings(res)
				if !hasWhere && !ordered {
					sort.Strings(got)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d %s %s: %s:\n  projected %v\n  verified  %v",
						seed, step, tg.name, how, q, got, want)
				}
			}
			res, err := tg.exec(q)
			if err != nil {
				t.Fatalf("seed %d step %d %s: %s: %v", seed, step, tg.name, q, err)
			}
			check("Exec", res)

			r, err := tg.rows(q)
			if err != nil {
				t.Fatalf("seed %d step %d %s: QueryRows %s: %v", seed, step, tg.name, q, err)
			}
			streamed := &Result{Columns: r.Columns()}
			for r.Next() {
				streamed.Rows = append(streamed.Rows, r.Row())
			}
			if err := r.Err(); err != nil {
				t.Fatalf("seed %d step %d %s: QueryRows %s: %v", seed, step, tg.name, q, err)
			}
			r.Close()
			check("QueryRows", streamed)

			if tg.begin != nil && !ordered { // ORDER BY is not available in a transaction
				tx, err := tg.begin()
				if err != nil {
					t.Fatal(err)
				}
				res, err := tx.Exec(q)
				if err != nil {
					t.Fatalf("seed %d step %d %s: in tx: %s: %v", seed, step, tg.name, q, err)
				}
				check("in a transaction", res)
				if err := tx.Rollback(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
