package client

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"sort"
	"strings"
	"testing"

	"sssdb/internal/proto"
)

// corruptFieldShares flips a bit in every 8-byte (field-share) cell of a
// rows response — the standard malicious-provider corrupter used across
// the byzantine tests.
func corruptFieldShares(resp proto.Message) proto.Message {
	if rr, ok := resp.(*proto.RowsResponse); ok {
		for i := range rr.Rows {
			for j, cell := range rr.Rows[i].Cells {
				if len(cell) == 8 {
					rr.Rows[i].Cells[j][2] ^= 0x10
				}
			}
		}
	}
	return resp
}

// oracleRow mirrors one logical row in plaintext.
type oracleRow struct {
	id   int // synthetic identity for deletion bookkeeping
	name string
	v    int64
	g    int64
}

// TestDifferentialRandomWorkload drives the whole stack — SQL, rewriting,
// routing, sharing, provider filtering, reconstruction, merging — with a
// random statement mix and checks every SELECT against a plaintext oracle,
// at one, two and three provider groups, with rows partitioned on the insert
// sequence and on a shard key. The oracle, not the one-group client, is the
// reference at every group count. Reads go through Exec, QueryRows and
// snapshot reads of a fresh Tx in turn; a share of the writes commit through
// a Tx. Any divergence in filtering, ordering semantics, updates, deletes or
// partial merging shows up here.
func TestDifferentialRandomWorkload(t *testing.T) {
	for _, tc := range []struct {
		groups int
		keyed  bool
	}{{1, false}, {2, false}, {2, true}, {3, false}, {3, true}} {
		t.Run(fmt.Sprintf("G=%d,keyed=%v", tc.groups, tc.keyed), func(t *testing.T) {
			opts := Options{}
			if tc.keyed {
				opts.ShardKeys = map[string]string{"t": "name"}
			}
			differentialWorkload(t, newShardFleet(t, tc.groups, 3, 2, opts))
		})
	}
}

func differentialWorkload(t *testing.T, f *shardFleet) {
	f.mustExec(t, `CREATE TABLE t (name VARCHAR(6), v INT, g INT)`)

	rng := mrand.New(mrand.NewSource(20240705))
	names := []string{"AA", "BB", "CC", "DD", "EE"}
	var oracle []oracleRow
	nextID := 1

	randName := func() string { return names[rng.Intn(len(names))] }
	randV := func() int64 { return int64(rng.Intn(1000)) }

	// query runs one SELECT by the route the step number picks: Exec,
	// QueryRows drained to the end, or — for the plain scans a transaction
	// supports — the snapshot read of a Tx begun just now.
	query := func(step int, q string, plain bool) *Result {
		t.Helper()
		var res *Result
		var err error
		switch route := step % 3; {
		case route == 1:
			var rows *Rows
			if rows, err = f.router.QueryRows(q); err == nil {
				res = &Result{Columns: rows.Columns()}
				for rows.Next() {
					res.Rows = append(res.Rows, rows.Row())
				}
				err = rows.Err()
				rows.Close()
			}
		case route == 2 && plain:
			var tx *Tx
			if tx, err = f.router.Begin(); err == nil {
				res, err = tx.Exec(q)
				if rerr := tx.Rollback(); err == nil {
					err = rerr
				}
			}
		default:
			res, err = f.router.Exec(q)
		}
		if err != nil {
			t.Fatalf("step %d: %s: %v", step, q, err)
		}
		return res
	}
	// write runs one DML statement, every third one through a Tx (whose
	// buffered statements report no affected count until they commit).
	write := func(step int, q string, affected uint64) {
		t.Helper()
		if step%3 != 0 {
			if res := f.mustExec(t, q); res.Affected != affected {
				t.Fatalf("step %d: %s affected %d, oracle %d", step, q, res.Affected, affected)
			}
			return
		}
		tx, err := f.router.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(q); err != nil {
			t.Fatalf("step %d: tx %s: %v", step, q, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("step %d: commit of %s: %v", step, q, err)
		}
	}

	selectAndCompare := func(step int) {
		t.Helper()
		kind := rng.Intn(10)
		var q string
		var want []int64 // expected v values, sorted
		switch kind {
		case 0: // exact match on name
			n := randName()
			q = fmt.Sprintf(`SELECT v FROM t WHERE name = '%s'`, n)
			for _, r := range oracle {
				if r.name == n {
					want = append(want, r.v)
				}
			}
		case 1: // range on v
			lo := randV()
			hi := lo + int64(rng.Intn(500))
			q = fmt.Sprintf(`SELECT v FROM t WHERE v BETWEEN %d AND %d`, lo, hi)
			for _, r := range oracle {
				if r.v >= lo && r.v <= hi {
					want = append(want, r.v)
				}
			}
		case 2: // conjunction
			lo := randV()
			g := int64(rng.Intn(4))
			q = fmt.Sprintf(`SELECT v FROM t WHERE v >= %d AND g = %d`, lo, g)
			for _, r := range oracle {
				if r.v >= lo && r.g == g {
					want = append(want, r.v)
				}
			}
		case 3: // aggregate COUNT + SUM over range
			lo := randV()
			hi := lo + int64(rng.Intn(700))
			q = fmt.Sprintf(`SELECT COUNT(*), SUM(v) FROM t WHERE v BETWEEN %d AND %d`, lo, hi)
			var count, sum int64
			for _, r := range oracle {
				if r.v >= lo && r.v <= hi {
					count++
					sum += r.v
				}
			}
			res := query(step, q, false)
			if res.Rows[0][0].I != count || res.Rows[0][1].I != sum {
				t.Fatalf("step %d: %s: got (%d,%d), want (%d,%d)",
					step, q, res.Rows[0][0].I, res.Rows[0][1].I, count, sum)
			}
			return
		case 4: // IN set
			a, b, cc := randV(), randV(), randV()
			q = fmt.Sprintf(`SELECT v FROM t WHERE v IN (%d, %d, %d)`, a, b, cc)
			for _, r := range oracle {
				if r.v == a || r.v == b || r.v == cc {
					want = append(want, r.v)
				}
			}
		case 5: // ORDER BY + LIMIT: compare as ordered prefix
			n := 1 + rng.Intn(5)
			q = fmt.Sprintf(`SELECT v FROM t ORDER BY v DESC LIMIT %d`, n)
			all := make([]int64, 0, len(oracle))
			for _, r := range oracle {
				all = append(all, r.v)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
			if len(all) > n {
				all = all[:n]
			}
			res := query(step, q, false)
			got := make([]int64, 0, len(res.Rows))
			for _, row := range res.Rows {
				got = append(got, row[0].I)
			}
			if fmt.Sprint(got) != fmt.Sprint(all) {
				t.Fatalf("step %d: %s:\n got  %v\n want %v", step, q, got, all)
			}
			return
		case 6: // GROUP BY g with HAVING
			minCount := 1 + rng.Intn(3)
			q = fmt.Sprintf(`SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g HAVING COUNT(*) >= %d`, minCount)
			type agg struct{ count, sum int64 }
			byG := map[int64]*agg{}
			for _, r := range oracle {
				a, ok := byG[r.g]
				if !ok {
					a = &agg{}
					byG[r.g] = a
				}
				a.count++
				a.sum += r.v
			}
			res := query(step, q, false)
			wantGroups := 0
			for _, a := range byG {
				if a.count >= int64(minCount) {
					wantGroups++
				}
			}
			if len(res.Rows) != wantGroups {
				t.Fatalf("step %d: %s: %d groups, want %d", step, q, len(res.Rows), wantGroups)
			}
			var prevG int64 = -1
			for _, row := range res.Rows {
				g := row[0].I
				if g <= prevG {
					t.Fatalf("step %d: groups out of order", step)
				}
				prevG = g
				a := byG[g]
				if row[1].I != a.count || row[2].I != a.sum {
					t.Fatalf("step %d: group %d got (%d,%d), want (%d,%d)",
						step, g, row[1].I, row[2].I, a.count, a.sum)
				}
			}
			return
		case 7: // MIN, MAX and AVG over a name: partials that compare, not add
			n := randName()
			q = fmt.Sprintf(`SELECT MIN(v), MAX(v), AVG(v), COUNT(v) FROM t WHERE name = '%s'`, n)
			var lo, hi, sum, count int64
			for _, r := range oracle {
				if r.name != n {
					continue
				}
				if count == 0 || r.v < lo {
					lo = r.v
				}
				if count == 0 || r.v > hi {
					hi = r.v
				}
				sum += r.v
				count++
			}
			if count == 0 {
				if _, err := f.router.Exec(q); !errors.Is(err, ErrEmptyAggregate) {
					t.Fatalf("step %d: %s over no rows: %v", step, q, err)
				}
				return
			}
			res := query(step, q, false)
			if got, want := rowsAsStrings(res)[0], fmt.Sprintf("%d,%d,%d,%d", lo, hi, sum/count, count); got != want {
				t.Fatalf("step %d: %s: got %s, want %s", step, q, got, want)
			}
			return
		case 8, 9: // every reduction at once, over a range that is sometimes empty: per g (HAVING on a pick or not), or in one bucket
			lo := randV()
			hi := lo + int64(rng.Intn(600))
			if rng.Intn(4) == 0 {
				lo, hi = 2000, 3000 // above every v
			}
			byG := map[int64][]int64{}
			var all []int64
			for _, r := range oracle {
				if r.v >= lo && r.v <= hi {
					byG[r.g] = append(byG[r.g], r.v)
					all = append(all, r.v)
				}
			}
			// line renders "count,sum,avg,min,max,median" of a non-empty bucket.
			line := func(vs []int64) string {
				sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
				var sum int64
				for _, v := range vs {
					sum += v
				}
				n := int64(len(vs))
				return fmt.Sprintf("%d,%d,%d,%d,%d,%d", n, sum, sum/n, vs[0], vs[n-1], vs[(n-1)/2])
			}
			where := fmt.Sprintf(`FROM t WHERE v BETWEEN %d AND %d`, lo, hi)
			if kind == 9 {
				// Five items, three provider rounds; MEDIAN is left out so that
				// the statement stays provider-side at every group count.
				q = `SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) ` + where
				if len(all) == 0 {
					if _, err := f.router.Exec(q); !errors.Is(err, ErrEmptyAggregate) {
						t.Fatalf("step %d: %s over no rows: %v", step, q, err)
					}
					q = `SELECT COUNT(*), SUM(v) ` + where
					if got := rowsAsStrings(query(step, q, false)); fmt.Sprint(got) != "[0,0]" {
						t.Fatalf("step %d: %s over no rows: %v, want one row of zeroes", step, q, got)
					}
					return
				}
				want := line(all)
				if got := rowsAsStrings(query(step, q, false)); len(got) != 1 || got[0] != want[:strings.LastIndex(want, ",")] {
					t.Fatalf("step %d: %s: got %v, want %s less its median", step, q, got, want)
				}
				return
			}
			// A MEDIAN keeps the statement provider-side only at one group;
			// without it the groups' MIN/MAX picks are merged by key.
			median := rng.Intn(2) == 0
			q = `SELECT g, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) ` + where + ` GROUP BY g`
			if median {
				q = `SELECT g, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v), MEDIAN(v) ` + where + ` GROUP BY g`
			}
			floor := int64(-1)
			if rng.Intn(2) == 0 {
				floor = randV()
				q += fmt.Sprintf(` HAVING MAX(v) >= %d`, floor)
			}
			var want []string
			for g := int64(0); g < 4; g++ {
				if vs := byG[g]; len(vs) > 0 {
					l := line(vs)
					if !median {
						l = l[:strings.LastIndex(l, ",")]
					}
					if vs[len(vs)-1] >= floor {
						want = append(want, fmt.Sprintf("%d,%s", g, l))
					}
				}
			}
			if got := rowsAsStrings(query(step, q, false)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: %s:\n got  %v\n want %v", step, q, got, want)
			}
			return
		}
		res := query(step, q, true)
		got := make([]int64, 0, len(res.Rows))
		for _, row := range res.Rows {
			got = append(got, row[0].I)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: %s:\n got  %v\n want %v", step, q, got, want)
		}
	}

	const steps = 300
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // insert
			n := randName()
			v := randV()
			g := int64(rng.Intn(4))
			write(step, fmt.Sprintf(`INSERT INTO t VALUES ('%s', %d, %d)`, n, v, g), 1)
			oracle = append(oracle, oracleRow{id: nextID, name: n, v: v, g: g})
			nextID++
		case op < 6: // update by name
			n := randName()
			newV := randV()
			var affected uint64
			for i := range oracle {
				if oracle[i].name == n {
					oracle[i].v = newV
					affected++
				}
			}
			write(step, fmt.Sprintf(`UPDATE t SET v = %d WHERE name = '%s'`, newV, n), affected)
		case op < 7: // delete a narrow range
			lo := randV()
			hi := lo + 50
			var kept []oracleRow
			var removed uint64
			for _, r := range oracle {
				if r.v >= lo && r.v <= hi {
					removed++
					continue
				}
				kept = append(kept, r)
			}
			oracle = kept
			write(step, fmt.Sprintf(`DELETE FROM t WHERE v BETWEEN %d AND %d`, lo, hi), removed)
		default: // select + compare
			selectAndCompare(step)
		}
	}
	// Final full-table sweep.
	res := f.mustExec(t, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].I != int64(len(oracle)) {
		t.Fatalf("final count %d, oracle %d", res.Rows[0][0].I, len(oracle))
	}
}

// The same workload with verification on every read: results must match the
// oracle AND carry the verified flag, with no provider flagged faulty.
func TestDifferentialVerifiedWorkload(t *testing.T) {
	f := newFleet(t, 4, 2, Options{Verified: true})
	f.mustExec(t, `CREATE TABLE t (v INT)`)
	rng := mrand.New(mrand.NewSource(7))
	var oracle []int64
	for step := 0; step < 60; step++ {
		if rng.Intn(3) > 0 || len(oracle) == 0 {
			v := int64(rng.Intn(500))
			f.mustExec(t, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, v))
			oracle = append(oracle, v)
			continue
		}
		lo := int64(rng.Intn(500))
		hi := lo + int64(rng.Intn(200))
		res := f.mustExec(t, fmt.Sprintf(`SELECT v FROM t WHERE v BETWEEN %d AND %d`, lo, hi))
		if !res.Verified {
			t.Fatalf("step %d: result not verified", step)
		}
		var want []int64
		for _, v := range oracle {
			if v >= lo && v <= hi {
				want = append(want, v)
			}
		}
		got := make([]int64, 0, len(res.Rows))
		for _, row := range res.Rows {
			got = append(got, row[0].I)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: got %v want %v", step, got, want)
		}
	}
}

// Byzantine stress: one crashed provider AND one share-corrupting provider
// at the same time (n=5, k=2) — verified reads must still return correct
// results and identify the corrupter.
func TestVerifiedUnderCrashPlusCorruption(t *testing.T) {
	f := newFleet(t, 5, 2, Options{})
	setupEmployees(t, f)
	f.faults[1].Crash()
	f.faults[3].SetCorrupter(corruptFieldShares)
	res := f.mustExec(t, `SELECT name, salary FROM employees WHERE salary BETWEEN 10 AND 80 VERIFIED`)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	got := rowsAsStrings(res)
	if got[0] != "John,10" || got[5] != "Dave,80" {
		t.Fatalf("values wrong under byzantine mix: %v", got)
	}
}
