// Command _e9probe times E9's join statement, employees(1000) ⋈ managers(300),
// on OpenLocal (N = 3, K = 2). Run: go run ./results/pr-38/_e9probe
package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"sssdb"
	"sssdb/internal/workload"
)

func main() {
	cl, err := sssdb.OpenLocal(3, sssdb.Options{K: 2, MasterKey: []byte("probe key")})
	if err != nil {
		panic(err)
	}
	defer cl.Close()
	db := cl.Client
	w := workload.GenJoin(1000, 300, 91)
	db.Exec(workload.EmployeesWithIDSchema)
	db.Exec(workload.ManagersSchema)
	if _, err := db.InsertValues("employees", w.Employees); err != nil {
		panic(err)
	}
	if _, err := db.InsertValues("managers", w.Managers); err != nil {
		panic(err)
	}
	q := `SELECT employees.name, managers.level FROM employees JOIN managers ON employees.eid = managers.eid`
	const iters = 300
	var lat []time.Duration
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if _, err := db.Exec(q); err != nil {
			panic(err)
		}
		lat = append(lat, time.Since(t0))
	}
	runtime.ReadMemStats(&m1)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	fmt.Printf("E9 join p50 %.0f µs p90 %.0f µs %.0f KB/op %.0f allocs/op\n", float64(lat[iters/2].Microseconds()), float64(lat[iters*9/10].Microseconds()),
		float64(m1.TotalAlloc-m0.TotalAlloc)/iters/1024, float64(m1.Mallocs-m0.Mallocs)/iters)
}
