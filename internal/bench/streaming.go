package bench

import (
	"fmt"
	"runtime"
	"time"

	"sssdb/internal/client"
	"sssdb/internal/workload"
)

// liveHeapPeak runs fn while periodically forcing a collection and
// sampling the live heap, returning fn's error, its duration, and the peak
// live heap observed above the pre-call baseline. Forcing the GC per
// sample (twice, so garbage floating through an in-progress mark cycle is
// reclaimed) makes the number the scan's reachable working set rather than
// allocator headroom.
func liveHeapPeak(fn func() error) (time.Duration, uint64, error) {
	sample := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := sample()
	stop := make(chan struct{})
	peaks := make(chan uint64)
	go func() {
		var peak uint64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if p := sample(); p > peak {
					peak = p
				}
			case <-stop:
				if p := sample(); p > peak {
					peak = p
				}
				peaks <- peak
				return
			}
		}
	}()
	start := time.Now()
	err := fn()
	dur := time.Since(start)
	close(stop)
	peak := <-peaks
	if peak < base {
		peak = base
	}
	return dur, peak - base, err
}

// RunS2 is the streaming-scan study: a full-table SELECT through the scan
// pipeline (provider cursors, incremental reconstruction), reporting
// full-scan latency, time to first row, and peak client-side live heap. The
// paper's outsourcing model moves storage to the providers; streaming keeps
// the data source's footprint independent of result size, so "as a service"
// holds for results larger than the client. (EXPERIMENTS.md keeps the
// numbers measured against the buffered scan this pipeline replaced.)
func RunS2(scale Scale) (*Table, error) {
	n := scale.pick(8_000, 50_000)
	t := &Table{
		ID:     "S2",
		Title:  fmt.Sprintf("supplementary: streaming full scan (%d rows, n=3, k=2)", n),
		Header: []string{"path", "full scan", "first row", "peak live heap"},
	}
	emp := workload.GenEmployees(n, 100_000, 20, 163)
	f, err := newFleet(3, 2, client.Options{})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.client.Exec(workload.EmployeesSchema); err != nil {
		return nil, err
	}
	if err := f.load("employees", emp.Rows); err != nil {
		return nil, err
	}
	scan := func() (firstRow time.Duration, err error) {
		start := time.Now()
		r, err := f.client.QueryRows(`SELECT name, salary, dept FROM employees`)
		if err != nil {
			return 0, err
		}
		defer r.Close()
		rows := 0
		for r.Next() {
			if rows == 0 {
				firstRow = time.Since(start)
			}
			rows++
		}
		if err := r.Err(); err != nil {
			return 0, err
		}
		if rows != n {
			return 0, fmt.Errorf("S2: scanned %d rows, want %d", rows, n)
		}
		return firstRow, nil
	}
	if _, err := scan(); err != nil { // warm caches and connections
		return nil, err
	}
	var firstRow time.Duration
	full, peak, err := liveHeapPeak(func() error {
		fr, err := scan()
		firstRow = fr
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"streaming", full.Round(10 * time.Microsecond).String(),
		firstRow.Round(10 * time.Microsecond).String(),
		fmt.Sprintf("%.2f MB", float64(peak)/(1<<20)),
	})
	t.Notes = append(t.Notes,
		"aligned chunks are reconstructed as they arrive; peak heap is a few row batches regardless of table size",
		"the first row arrives after one chunk, not after the full scan")
	return t, nil
}
