package sssdb

import (
	"fmt"
	"net"
	"testing"

	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

// TestScanWireBudget holds the communication cost of the two read shapes
// the repository benchmark measures (benchmark/: table emp, N=3, K=2,
// loopback TCP) to a byte budget. Providers store 2 cells per column — an
// order-preserving share as wide as the column's domain (13 bytes for INT,
// 14 for VARCHAR(8)) and an 8-byte field share — and an unverified read must
// ship the field shares of the columns it reads and nothing else: a
// share-row block states its shape once, so a row is its id plus 4 × 8 bytes
// of cells, not the 85 bytes of shares of a whole stored row. The range
// scan's budget therefore does not move with the share width — its
// responses carry #f cells only — while the point read's does: its cost is
// mostly the request, whose two equality bounds are 13-byte shares.
func TestScanWireBudget(t *testing.T) {
	addrs := make([]string, 3)
	for i := range addrs {
		st, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := transport.NewServerWith(ln, server.New(st), transport.ServerConfig{})
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr().String()
	}
	db, err := Open(addrs, Options{K: 2, MasterKey: []byte("wire budget")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE emp (id INT, name VARCHAR(8), salary INT, dept INT)`); err != nil {
		t.Fatal(err)
	}
	const n = 5000
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{IntValue(int64(i)), StringValue(fmt.Sprintf("e%d", i%977)),
			IntValue(int64(i * 7 % n)), IntValue(int64(i % 16))}
	}
	if _, err := db.InsertValues("emp", rows); err != nil {
		t.Fatal(err)
	}

	wire := func(q string, wantRows int) (sent, received uint64) {
		t.Helper()
		before := db.Stats()
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) != wantRows {
			t.Fatalf("%s: %d rows, want %d", q, len(res.Rows), wantRows)
		}
		after := db.Stats()
		return after.BytesSent - before.BytesSent, after.BytesReceived - before.BytesReceived
	}

	// salary is a permutation of 0..n-1, so the range holds exactly 2000 rows.
	_, received := wire(`SELECT * FROM emp WHERE salary BETWEEN 1000 AND 2999`, 2000)
	if perRow := float64(received) / 2000 / 2; perRow > 37 {
		t.Errorf("4-column range scan: %.1f bytes per row per provider, budget 37", perRow)
	}
	// A hedged request would add a third provider's bytes; the cheapest of a
	// few runs is the unhedged cost.
	best := ^uint64(0)
	for i := 0; i < 5; i++ {
		sent, received := wire(`SELECT name, salary FROM emp WHERE id = 1234`, 1)
		best = min(best, sent+received)
	}
	if best > 255 {
		t.Errorf("2-column point read: %d bytes end to end, budget 255", best)
	}
	t.Logf("range scan %.1f B/row/provider, point read %d B", float64(received)/2000/2, best)
}
