package sql

import (
	"errors"
	"reflect"
	"testing"
)

func mustParse(t *testing.T, q string) Statement {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return stmt
}

func TestParseCreateTable(t *testing.T) {
	stmt := mustParse(t, `CREATE TABLE employees (
		name VARCHAR(10),
		salary DECIMAL(2),
		dept INT,
		photo BLOB
	)`)
	ct, ok := stmt.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	want := &CreateTable{
		Name: "employees",
		Columns: []ColumnDef{
			{Name: "name", Type: TypeVarchar, Arg: 10},
			{Name: "salary", Type: TypeDecimal, Arg: 2},
			{Name: "dept", Type: TypeInt},
			{Name: "photo", Type: TypeBlob},
		},
	}
	if !reflect.DeepEqual(ct, want) {
		t.Fatalf("got %#v", ct)
	}
}

func TestParseCreatePublicTable(t *testing.T) {
	stmt := mustParse(t, `CREATE PUBLIC TABLE restaurants (name VARCHAR(10), zip INT)`)
	ct := stmt.(*CreateTable)
	if !ct.Public || ct.Name != "restaurants" || len(ct.Columns) != 2 {
		t.Fatalf("got %#v", ct)
	}
}

func TestParseDrop(t *testing.T) {
	stmt := mustParse(t, "DROP TABLE employees;")
	if dt := stmt.(*DropTable); dt.Name != "employees" {
		t.Fatalf("got %#v", dt)
	}
}

func TestParseInsert(t *testing.T) {
	stmt := mustParse(t, `INSERT INTO employees VALUES ('John', 40000.00, 7), ('Jane', -1200, 8)`)
	ins := stmt.(*Insert)
	want := &Insert{
		Table: "employees",
		Rows: [][]Literal{
			{{IsString: true, Text: "John"}, {Text: "40000.00"}, {Text: "7"}},
			{{IsString: true, Text: "Jane"}, {Text: "-1200"}, {Text: "8"}},
		},
	}
	if !reflect.DeepEqual(ins, want) {
		t.Fatalf("got %#v", ins)
	}
}

func TestParseSelectStar(t *testing.T) {
	stmt := mustParse(t, `SELECT * FROM employees WHERE name = 'John'`)
	sel := stmt.(*Select)
	if !sel.Items[0].Star || sel.Table != "employees" {
		t.Fatalf("got %#v", sel)
	}
	if len(sel.Where) != 1 || sel.Where[0].Op != OpEq || sel.Where[0].Lo.Text != "John" || !sel.Where[0].Lo.IsString {
		t.Fatalf("where: %#v", sel.Where)
	}
}

func TestParseSelectRangeAndConjunction(t *testing.T) {
	stmt := mustParse(t, `SELECT name, salary FROM employees
		WHERE salary BETWEEN 10000 AND 40000 AND dept = 7 LIMIT 50`)
	sel := stmt.(*Select)
	if len(sel.Items) != 2 || sel.Items[0].Col.Name != "name" || sel.Items[1].Col.Name != "salary" {
		t.Fatalf("items: %#v", sel.Items)
	}
	if len(sel.Where) != 2 {
		t.Fatalf("where: %#v", sel.Where)
	}
	if sel.Where[0].Op != OpBetween || sel.Where[0].Lo.Text != "10000" || sel.Where[0].Hi.Text != "40000" {
		t.Fatalf("between: %#v", sel.Where[0])
	}
	if sel.Where[1].Op != OpEq || sel.Where[1].Col.Name != "dept" {
		t.Fatalf("eq: %#v", sel.Where[1])
	}
	if sel.Limit != 50 {
		t.Fatalf("limit: %d", sel.Limit)
	}
}

func TestParseSelectComparisons(t *testing.T) {
	ops := map[string]CompareOp{
		"=": OpEq, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	}
	for text, op := range ops {
		sel := mustParse(t, "SELECT * FROM t WHERE x "+text+" 5").(*Select)
		if sel.Where[0].Op != op {
			t.Errorf("op %q parsed as %v", text, sel.Where[0].Op)
		}
	}
}

func TestParseAggregates(t *testing.T) {
	stmt := mustParse(t, `SELECT COUNT(*), SUM(salary), AVG(salary), MIN(salary), MAX(salary), MEDIAN(salary) FROM employees WHERE name = 'John'`)
	sel := stmt.(*Select)
	wantFns := []AggFunc{AggCount, AggSum, AggAvg, AggMin, AggMax, AggMedian}
	if len(sel.Items) != len(wantFns) {
		t.Fatalf("items: %d", len(sel.Items))
	}
	for i, fn := range wantFns {
		if sel.Items[i].Agg != fn {
			t.Errorf("item %d: %v, want %v", i, sel.Items[i].Agg, fn)
		}
	}
	if !sel.Items[0].Star {
		t.Error("COUNT(*) star flag missing")
	}
	if sel.Items[1].Col.Name != "salary" {
		t.Errorf("SUM column: %v", sel.Items[1].Col)
	}
}

func TestParseJoin(t *testing.T) {
	stmt := mustParse(t, `SELECT employees.salary, managers.ManagerUserName
		FROM employees JOIN managers ON employees.EID = managers.EID
		WHERE employees.dept = 3`)
	sel := stmt.(*Select)
	if sel.Join == nil || sel.Join.Table != "managers" {
		t.Fatalf("join: %#v", sel.Join)
	}
	if sel.Join.Left.Table != "employees" || sel.Join.Left.Name != "EID" {
		t.Fatalf("join left: %#v", sel.Join.Left)
	}
	if sel.Join.Right.Table != "managers" || sel.Join.Right.Name != "EID" {
		t.Fatalf("join right: %#v", sel.Join.Right)
	}
	if sel.Items[0].Col.Table != "employees" || sel.Items[1].Col.Table != "managers" {
		t.Fatalf("items: %#v", sel.Items)
	}
}

func TestParseLikePrefix(t *testing.T) {
	stmt := mustParse(t, `SELECT * FROM employees WHERE name LIKE 'AB%'`)
	sel := stmt.(*Select)
	if sel.Where[0].Op != OpLikePrefix || sel.Where[0].Lo.Text != "AB" {
		t.Fatalf("like: %#v", sel.Where[0])
	}
	// Non-prefix patterns are rejected.
	for _, bad := range []string{"'%AB'", "'A%B'", "'AB'", "5"} {
		if _, err := Parse("SELECT * FROM t WHERE name LIKE " + bad); err == nil {
			t.Errorf("LIKE %s accepted", bad)
		}
	}
}

func TestParseGroupBy(t *testing.T) {
	sel := mustParse(t, `SELECT dept, COUNT(*), SUM(salary) FROM employees
		WHERE salary > 0 GROUP BY dept LIMIT 5`).(*Select)
	if sel.GroupBy == nil || sel.GroupBy.Name != "dept" {
		t.Fatalf("group by: %#v", sel.GroupBy)
	}
	if sel.Limit != 5 || len(sel.Where) != 1 {
		t.Fatalf("clauses around GROUP BY mis-parsed: %#v", sel)
	}
	// Qualified group column.
	sel = mustParse(t, `SELECT COUNT(*) FROM t GROUP BY t.g`).(*Select)
	if sel.GroupBy.Table != "t" || sel.GroupBy.Name != "g" {
		t.Fatalf("qualified group by: %#v", sel.GroupBy)
	}
	// Errors.
	for _, bad := range []string{
		"SELECT COUNT(*) FROM t GROUP dept",
		"SELECT COUNT(*) FROM t GROUP BY",
		"SELECT COUNT(*) FROM t GROUP BY 5",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

// LIMIT 0 is refused where it stands: a LIMIT of 0 means no LIMIT inside
// the engine, so accepting it would return every row.
func TestParseRefusesLimitZero(t *testing.T) {
	for _, q := range []string{
		"SELECT a FROM t LIMIT 0",
		"SELECT a, COUNT(*) FROM t GROUP BY a LIMIT 00",
		"SELECT t.a FROM t JOIN u ON t.a = u.a LIMIT 0 VERIFIED",
	} {
		_, err := Parse(q)
		var se *SyntaxError
		if !errors.As(err, &se) || q[se.Pos:se.Pos+1] != "0" {
			t.Errorf("Parse(%q): %v, want a syntax error at the 0", q, err)
		}
	}
	if sel := mustParse(t, "SELECT a FROM t LIMIT 1").(*Select); sel.Limit != 1 {
		t.Fatalf("LIMIT 1 parsed as %d", sel.Limit)
	}
}

func TestParseOrderBy(t *testing.T) {
	sel := mustParse(t, `SELECT a FROM t WHERE a > 1 ORDER BY a DESC LIMIT 3`).(*Select)
	if sel.OrderBy == nil || sel.OrderBy.Col.Name != "a" || !sel.OrderBy.Desc {
		t.Fatalf("order by: %#v", sel.OrderBy)
	}
	if sel.Limit != 3 {
		t.Fatalf("limit after order by: %d", sel.Limit)
	}
	sel = mustParse(t, `SELECT a FROM t ORDER BY t.a ASC`).(*Select)
	if sel.OrderBy.Desc || sel.OrderBy.Col.Table != "t" {
		t.Fatalf("asc qualified: %#v", sel.OrderBy)
	}
	sel = mustParse(t, `SELECT a FROM t ORDER BY a`).(*Select)
	if sel.OrderBy.Desc {
		t.Fatal("implicit direction should be ASC")
	}
	for _, bad := range []string{
		"SELECT a FROM t ORDER a",
		"SELECT a FROM t ORDER BY",
		"SELECT a FROM t ORDER BY 5",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestParseVerified(t *testing.T) {
	sel := mustParse(t, `SELECT * FROM t WHERE x BETWEEN 1 AND 2 VERIFIED`).(*Select)
	if !sel.Verified {
		t.Fatal("VERIFIED not parsed")
	}
}

func TestParseUpdate(t *testing.T) {
	stmt := mustParse(t, `UPDATE employees SET salary = 45000.00, dept = 9 WHERE name = 'John'`)
	upd := stmt.(*Update)
	if upd.Table != "employees" || len(upd.Set) != 2 {
		t.Fatalf("got %#v", upd)
	}
	if upd.Set[0].Col != "salary" || upd.Set[0].Value.Text != "45000.00" {
		t.Fatalf("set[0]: %#v", upd.Set[0])
	}
	if len(upd.Where) != 1 {
		t.Fatalf("where: %#v", upd.Where)
	}
}

func TestParseDelete(t *testing.T) {
	stmt := mustParse(t, `DELETE FROM employees WHERE salary > 100000`)
	del := stmt.(*Delete)
	if del.Table != "employees" || len(del.Where) != 1 || del.Where[0].Op != OpGt {
		t.Fatalf("got %#v", del)
	}
	// No WHERE deletes everything.
	del = mustParse(t, `DELETE FROM employees`).(*Delete)
	if del.Where != nil {
		t.Fatalf("got %#v", del)
	}
}

func TestParseStringEscapes(t *testing.T) {
	ins := mustParse(t, `INSERT INTO t VALUES ('O''Brien')`).(*Insert)
	if ins.Rows[0][0].Text != "O'Brien" {
		t.Fatalf("got %q", ins.Rows[0][0].Text)
	}
}

func TestParseComments(t *testing.T) {
	sel := mustParse(t, "SELECT * -- output everything\nFROM t").(*Select)
	if sel.Table != "t" {
		t.Fatalf("got %#v", sel)
	}
}

func TestParseNegativeAndDecimalLiterals(t *testing.T) {
	ins := mustParse(t, `INSERT INTO t VALUES (-5, +3, 2.75, .5)`).(*Insert)
	texts := []string{"-5", "3", "2.75", ".5"}
	for i, want := range texts {
		if ins.Rows[0][i].Text != want {
			t.Errorf("literal %d: %q, want %q", i, ins.Rows[0][i].Text, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE x",
		"SELECT * FROM t WHERE x BETWEEN 1",
		"SELECT * FROM t WHERE x BETWEEN 1 2",
		"SELECT * FROM t LIMIT x",
		"SELECT SUM(*) FROM t",
		"CREATE TABLE t",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a)",
		"CREATE TABLE t (a VARCHAR)",
		"CREATE TABLE t (a VARCHAR(x))",
		"CREATE TABLE t (a INT",
		"INSERT t VALUES (1)",
		"INSERT INTO t VALUES 1",
		"INSERT INTO t VALUES ()",
		"INSERT INTO t VALUES (1",
		"UPDATE t SET",
		"UPDATE t SET a",
		"UPDATE t SET a = ",
		"DELETE t",
		"DROP t",
		"SELECT * FROM t extra",
		"SELECT * FROM t WHERE x != 5",
		"SELECT * FROM t JOIN u ON a.b",
		"SELECT * FROM t WHERE x = 'unterminated",
		"SELECT * FROM t WHERE x = 1.2.3",
		"SELECT @ FROM t",
	}
	for _, q := range cases {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("Parse(%q) error is %T, want *SyntaxError", q, err)
			}
		}
	}
}

func TestStringers(t *testing.T) {
	if TypeInt.String() != "INT" || TypeDecimal.String() != "DECIMAL" ||
		TypeVarchar.String() != "VARCHAR" || TypeBlob.String() != "BLOB" {
		t.Error("TypeName strings")
	}
	if OpBetween.String() != "BETWEEN" || OpEq.String() != "=" || OpLikePrefix.String() != "LIKE" {
		t.Error("CompareOp strings")
	}
	if AggMedian.String() != "MEDIAN" || AggNone.String() != "" {
		t.Error("AggFunc strings")
	}
	if (ColumnRef{Table: "t", Name: "c"}).String() != "t.c" || (ColumnRef{Name: "c"}).String() != "c" {
		t.Error("ColumnRef strings")
	}
}

func BenchmarkParseSelect(b *testing.B) {
	q := `SELECT name, salary FROM employees WHERE salary BETWEEN 10000 AND 40000 AND dept = 7 LIMIT 50`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParseTransactionKeywords(t *testing.T) {
	cases := []struct {
		q    string
		want Statement
	}{
		{`BEGIN`, &BeginTx{}},
		{`begin transaction`, &BeginTx{}},
		{`BEGIN WORK`, &BeginTx{}},
		{`COMMIT`, &CommitTx{}},
		{`COMMIT TRANSACTION`, &CommitTx{}},
		{`commit work`, &CommitTx{}},
		{`ROLLBACK`, &RollbackTx{}},
		{`ROLLBACK TRANSACTION`, &RollbackTx{}},
		{`ROLLBACK WORK`, &RollbackTx{}},
	}
	for _, c := range cases {
		stmt, err := Parse(c.q)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.q, err)
			continue
		}
		if reflect.TypeOf(stmt) != reflect.TypeOf(c.want) {
			t.Errorf("Parse(%q) = %T, want %T", c.q, stmt, c.want)
		}
	}
	// Trailing garbage is still rejected.
	for _, q := range []string{`BEGIN TRANSACTION NOW`, `COMMIT 5`, `ROLLBACK WORK PLEASE`} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want syntax error", q)
		}
	}
}
