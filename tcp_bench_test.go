package sssdb

// Loopback-TCP transport benchmarks: the same mixed workload over real
// sockets against durable (WAL + fsync) providers, once with each provider
// executing one request at a time (ServerConfig.MaxInflight: 1) and once
// with the default-sized execution budget. One at a time head-of-line
// blocks: an INSERT holds the provider through its WAL fsync and every
// SELECT queued behind it stalls, while concurrent execution lets reads
// overtake writes and lets concurrent INSERTs share one group-committed
// fsync:
//
//	go test -bench TCPScanParallel -cpu 1,4 -benchtime 2x .

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

const tcpBenchRows = 512

// newTCPBenchClient starts three durable in-process providers on loopback
// TCP, each executing at most maxInflight requests at once, and connects a
// client.
func newTCPBenchClient(b *testing.B, maxInflight int) *Client {
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
		srv := transport.NewServerWith(ln, server.New(st), transport.ServerConfig{MaxInflight: maxInflight})
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
	if _, err := db.InsertValues("wide", seedRows(tcpBenchRows)); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkTCPScanParallel drives a mixed workload (every other statement
// is an INSERT, the rest are narrow range SELECTs) over loopback TCP with
// 16x oversubscribed goroutines, so every provider connection has many
// statements in flight. With one request executing per provider, reads
// stall behind each INSERT's WAL fsync and concurrent INSERTs each pay a
// solo fsync; with concurrent execution reads overtake writes and the
// providers group-commit concurrent INSERTs into shared fsyncs.
func BenchmarkTCPScanParallel(b *testing.B) {
	for _, mode := range []struct {
		name        string
		maxInflight int
	}{{"inflight-1", 1}, {"mux", 256}} {
		b.Run(mode.name, func(b *testing.B) {
			db := newTCPBenchClient(b, mode.maxInflight)
			var inserted atomic.Int64
			b.ReportAllocs()
			b.SetParallelism(16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					i++
					if i%2 == 0 {
						id := inserted.Add(1)
						q := fmt.Sprintf(`INSERT INTO wide VALUES ('x%06d', %d, %d)`,
							id%1_000_000, id%9973, 2_000_000+id)
						if _, err := db.Exec(q); err != nil {
							b.Fatal(err)
						}
						continue
					}
					lo := (i * 97) % 9000
					q := fmt.Sprintf(`SELECT w FROM wide WHERE v BETWEEN %d AND %d`, lo, lo+2)
					if _, err := db.Exec(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
