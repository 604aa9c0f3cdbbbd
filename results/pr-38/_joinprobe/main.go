// Command _joinprobe times SELECT d.y, a.id FROM d JOIN a ON d.k = a.k WHERE d.y = 3
// and the scan that returns the same 50 rows, on OpenLocal (N = 3, K = 2), with
// a(id, k) of the given row count and d(k, y) of a fiftieth of it.
// Run: go run ./results/pr-38/_joinprobe 50000
package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"sssdb"
)

func main() {
	n, _ := strconv.Atoi(os.Args[1])
	cl, err := sssdb.OpenLocal(3, sssdb.Options{K: 2, MasterKey: []byte("probe key")})
	if err != nil {
		panic(err)
	}
	defer cl.Close()
	db := cl.Client
	for _, q := range []string{`CREATE TABLE a (id INT, k INT)`, `CREATE TABLE d (k INT, y INT)`} {
		if _, err := db.Exec(q); err != nil {
			panic(err)
		}
	}
	nd := n / 50
	var rows [][]sssdb.Value
	for i := 1; i <= n; i++ {
		rows = append(rows, []sssdb.Value{sssdb.IntValue(int64(i)), sssdb.IntValue(int64(i % nd))})
		if len(rows) == 2000 || i == n {
			if _, err := db.InsertValues("a", rows); err != nil {
				panic(err)
			}
			rows = rows[:0]
		}
	}
	for k := 0; k < nd; k++ {
		rows = append(rows, []sssdb.Value{sssdb.IntValue(int64(k)), sssdb.IntValue(int64(k))})
	}
	if _, err := db.InsertValues("d", rows); err != nil {
		panic(err)
	}
	for _, q := range []string{
		`SELECT d.y, a.id FROM d JOIN a ON d.k = a.k WHERE d.y = 3`,
		`SELECT a.id FROM a WHERE a.k = 3`,
	} {
		const iters = 200
		var lat []time.Duration
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			res, err := db.Exec(q)
			lat = append(lat, time.Since(t0))
			if err != nil || len(res.Rows) != 50 {
				panic(fmt.Sprint(q, err, len(res.Rows)))
			}
		}
		runtime.ReadMemStats(&m1)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fmt.Printf("rows=%d  %-60s p50 %8.1f µs  %8.1f KB/op  %7.0f allocs/op\n", n, q,
			float64(lat[iters/2].Nanoseconds())/1e3,
			float64(m1.TotalAlloc-m0.TotalAlloc)/iters/1024, float64(m1.Mallocs-m0.Mallocs)/iters)
	}
}
