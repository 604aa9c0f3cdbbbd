package client

import (
	"errors"
	"fmt"
	"testing"
)

func setupGrouped(t testing.TB, f *fleet) {
	t.Helper()
	f.mustExec(t, `CREATE TABLE sales (region VARCHAR(6), amount DECIMAL(2), units INT)`)
	f.mustExec(t, `INSERT INTO sales VALUES
		('EAST', 100.00, 10), ('EAST', 250.50, 5), ('EAST', 49.50, 1),
		('WEST', 300.00, 7), ('WEST', 100.00, 3),
		('NORTH', 10.25, 2)`)
}

func TestGroupByCountSumAvg(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupGrouped(t, f)
	res := f.mustExec(t, `SELECT region, COUNT(*), SUM(amount), AVG(units) FROM sales GROUP BY region`)
	got := rowsAsStrings(res)
	// Groups come back in key (value) order: EAST < NORTH < WEST.
	want := []string{
		"EAST,3,400.00,5",
		"NORTH,1,10.25,2",
		"WEST,2,400.00,5",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if res.Columns[0] != "region" || res.Columns[2] != "SUM(amount)" {
		t.Fatalf("columns: %v", res.Columns)
	}
}

func TestGroupByWithFilter(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupGrouped(t, f)
	res := f.mustExec(t, `SELECT region, SUM(amount) FROM sales WHERE amount >= 100.00 GROUP BY region`)
	got := rowsAsStrings(res)
	want := []string{"EAST,350.50", "WEST,400.00"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// Provider-side and client-side grouped paths must agree.
func TestGroupByClientSideFallbackMatches(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupGrouped(t, f)
	q := `SELECT region, COUNT(*), SUM(units), AVG(amount) FROM sales GROUP BY region`
	remote := rowsAsStrings(f.mustExec(t, q))
	f.client.SetClientSideAggregates(true)
	local := rowsAsStrings(f.mustExec(t, q))
	f.client.SetClientSideAggregates(false)
	if fmt.Sprint(remote) != fmt.Sprint(local) {
		t.Fatalf("remote %v != local %v", remote, local)
	}
}

// MEDIAN/MIN/MAX are picked per group, by order, at the providers.
func TestGroupByComplexAggregates(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupGrouped(t, f)
	res := f.mustExec(t, `SELECT region, MIN(amount), MAX(amount), MEDIAN(units) FROM sales GROUP BY region`)
	got := rowsAsStrings(res)
	want := []string{
		"EAST,49.50,250.50,5",
		"NORTH,10.25,10.25,2",
		"WEST,100.00,300.00,3",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// Residual predicates force the client-side path.
func TestGroupByResidualPredicates(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupGrouped(t, f)
	res := f.mustExec(t, `SELECT region, COUNT(*) FROM sales
		WHERE amount >= 10.00 AND units >= 3 GROUP BY region`)
	got := rowsAsStrings(res)
	want := []string{"EAST,2", "WEST,2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// Bare GROUP BY with no aggregates behaves like DISTINCT on the key.
func TestGroupByDistinct(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupGrouped(t, f)
	res := f.mustExec(t, `SELECT region FROM sales GROUP BY region`)
	got := rowsAsStrings(res)
	if fmt.Sprint(got) != "[EAST NORTH WEST]" {
		t.Fatalf("got %v", got)
	}
}

func TestGroupByIntKey(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	res := f.mustExec(t, `SELECT dept, COUNT(*), SUM(salary) FROM employees GROUP BY dept`)
	got := rowsAsStrings(res)
	// setupEmployees: dept 1 {10,20}, dept 2 {40,60}, dept 3 {80,35}.
	want := []string{"1,2,30", "2,2,100", "3,2,115"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// A verified aggregate is bucketed from a verified scan, and says so; one the
// providers reduced is not — grouped and ungrouped by the same rule.
func TestGroupByVerifiedUsesLocalPath(t *testing.T) {
	f := newFleet(t, 4, 2, Options{})
	setupGrouped(t, f)
	for q, want := range map[string]string{
		`SELECT region, SUM(units) FROM sales GROUP BY region`: "[EAST,16 NORTH,2 WEST,10]",
		`SELECT SUM(units), MAX(amount), COUNT(*) FROM sales`:  "[28,300.00,6]",
	} {
		res := f.mustExec(t, q+` VERIFIED`)
		if !res.Verified {
			t.Errorf("%s VERIFIED: not marked verified", q)
		}
		if got := rowsAsStrings(res); fmt.Sprint(got) != want {
			t.Errorf("%s VERIFIED: got %v, want %s", q, got, want)
		}
		if res = f.mustExec(t, q); res.Verified || fmt.Sprint(rowsAsStrings(res)) != want {
			t.Errorf("%s: Verified = %v, rows %v, want unverified %s", q, res.Verified, rowsAsStrings(res), want)
		}
	}
}

func TestGroupByErrors(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupGrouped(t, f)
	f.mustExec(t, `CREATE TABLE blobs (id INT, body BLOB)`)
	cases := []struct {
		q    string
		want error
	}{
		{`SELECT amount FROM sales GROUP BY region`, ErrUnsupported},              // non-grouped plain column
		{`SELECT * FROM sales GROUP BY region`, ErrUnsupported},                   // star
		{`SELECT region, SUM(region) FROM sales GROUP BY region`, ErrUnsupported}, // sum of varchar
		{`SELECT AVG(region) FROM sales`, ErrUnsupported},                         // the same, without a key
		{`SELECT region, COUNT(*) FROM sales GROUP BY region HAVING SUM(region) > 1`, ErrUnsupported},
		{`SELECT region, COUNT(*) FROM sales`, ErrUnsupported},             // plain column, no key
		{`SELECT body, COUNT(*) FROM blobs GROUP BY body`, ErrUnsupported}, // blob key
		{`SELECT missing, COUNT(*) FROM sales GROUP BY missing`, ErrNoSuchColumn},
		{`SELECT a.x FROM sales JOIN blobs ON sales.units = blobs.id GROUP BY x`, ErrUnsupported},
	}
	// The plan refuses them, so EXPLAIN never describes a statement that
	// then fails.
	for _, tc := range cases {
		for _, q := range []string{tc.q, "EXPLAIN " + tc.q} {
			if _, err := f.client.Exec(q); !errors.Is(err, tc.want) {
				t.Errorf("Exec(%q) = %v, want %v", q, err, tc.want)
			}
		}
	}
}

func TestGroupByEmptyMatch(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupGrouped(t, f)
	res := f.mustExec(t, `SELECT region, COUNT(*) FROM sales WHERE amount > 99999.00 GROUP BY region`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows: %v", rowsAsStrings(res))
	}
}

// Grouped provider-side aggregation must move far fewer bytes than the
// scan-everything fallback (the point of pushing GROUP BY down).
func TestGroupByBytesAdvantage(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE big (g INT, v INT)`)
	q := "INSERT INTO big VALUES "
	for i := 0; i < 600; i++ {
		if i > 0 {
			q += ","
		}
		q += fmt.Sprintf("(%d, %d)", i%6, i)
	}
	f.mustExec(t, q)
	for _, sel := range []string{`SELECT g, SUM(v) FROM big GROUP BY g`, `SELECT g, MIN(v), MAX(v) FROM big GROUP BY g`} {
		before := f.client.Stats()
		f.mustExec(t, sel)
		mid := f.client.Stats()
		f.client.SetClientSideAggregates(true)
		f.mustExec(t, sel)
		after := f.client.Stats()
		f.client.SetClientSideAggregates(false)
		remote := mid.BytesReceived - before.BytesReceived
		local := after.BytesReceived - mid.BytesReceived
		if remote*10 > local {
			t.Errorf("%s: push-down moved %d bytes, fallback %d", sel, remote, local)
		}
	}
}
