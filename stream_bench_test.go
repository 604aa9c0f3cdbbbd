package sssdb

// End-to-end streaming-scan benchmarks over loopback TCP: a 50k-row full
// scan through the streaming pipeline (provider cursors ship bounded
// chunks, the client reconstructs incrementally), reporting peak client
// heap and time to first row. EXPERIMENTS.md keeps the numbers measured
// against the buffered scan this pipeline replaced:
//
//	go test -bench StreamingScan -cpu 4 -benchtime 2x .

import (
	"net"
	"runtime"
	"testing"
	"time"

	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

const streamBenchRows = 50_000

// newStreamBenchClient starts three durable providers on loopback TCP and
// seeds a 50k-row table.
func newStreamBenchClient(b *testing.B) *Client {
	b.Helper()
	addrs := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := transport.NewServerWith(ln, server.New(st), transport.ServerConfig{MaxInflight: 256})
		b.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr().String())
	}
	db, err := Open(addrs, Options{K: 2, MasterKey: []byte("bench")})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE wide (name VARCHAR(8), v INT, w INT)`); err != nil {
		b.Fatal(err)
	}
	rows := seedRows(streamBenchRows)
	for off := 0; off < len(rows); off += 10_000 {
		end := off + 10_000
		if end > len(rows) {
			end = len(rows)
		}
		if _, err := db.InsertValues("wide", rows[off:end]); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// heapSampler periodically forces a collection and records the peak live
// heap. Sampling HeapAlloc raw would mostly measure how far allocation
// outruns the concurrent collector; forcing a GC per sample measures what
// the scan actually keeps reachable — the quantity streaming is meant to
// bound.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan uint64)}
	go func() {
		var ms runtime.MemStats
		var peak uint64
		sample := func() {
			// Twice: garbage allocated while the first cycle is marking
			// floats through it and is only reclaimed by the second.
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-s.stop:
				sample()
				s.done <- peak
				return
			}
		}
	}()
	return s
}

func (s *heapSampler) Stop() uint64 {
	close(s.stop)
	return <-s.done
}

// BenchmarkStreamingScan measures a full 50k-row scan over TCP, reporting
// peak client heap over baseline (peak-heap-B) and time to the first row
// reaching the caller (first-row-ms) alongside the usual ns/op full-scan
// latency.
func BenchmarkStreamingScan(b *testing.B) {
	db := newStreamBenchClient(b)
	q := `SELECT name, v, w FROM wide`
	var peakMax uint64
	var firstSum time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		sampler := startHeapSampler()
		b.StartTimer()

		start := time.Now()
		r, err := db.QueryRows(q)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for r.Next() {
			if n == 0 {
				firstSum += time.Since(start)
			}
			n++
		}
		r.Close()

		b.StopTimer()
		peak := sampler.Stop()
		if peak > base.HeapAlloc && peak-base.HeapAlloc > peakMax {
			peakMax = peak - base.HeapAlloc
		}
		b.StartTimer()
		if err := r.Err(); err != nil {
			b.Fatal(err)
		}
		if n != streamBenchRows {
			b.Fatalf("scanned %d rows, want %d", n, streamBenchRows)
		}
	}
	b.ReportMetric(float64(peakMax), "peak-heap-B")
	b.ReportMetric(float64(firstSum.Milliseconds())/float64(b.N), "first-row-ms")
}

// BenchmarkStreamingScanLimit runs LIMIT 10 over the 50k-row table and
// asserts the O(limit) transfer property on real sockets: the limit is
// pushed into the provider cursors, so the scan must move a few KiB, not
// the multi-MB full result.
func BenchmarkStreamingScanLimit(b *testing.B) {
	db := newStreamBenchClient(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := db.Stats().BytesReceived
		res, err := db.Exec(`SELECT v FROM wide LIMIT 10`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatalf("%d rows, want 10", len(res.Rows))
		}
		if delta := db.Stats().BytesReceived - before; delta > 64<<10 {
			b.Fatalf("LIMIT 10 over %d rows received %d bytes; limit pushdown broken", streamBenchRows, delta)
		}
	}
}
