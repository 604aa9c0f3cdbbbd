package client

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

// TestConcurrentStatementsSurviveSharedConnDeath is the failover
// regression for the multiplexed transport: concurrent SELECTs share one
// connection per provider, so killing a provider fails many in-flight
// calls at once — every affected statement must fail over to the
// surviving providers and succeed, with no statement-level errors.
func TestConcurrentStatementsSurviveSharedConnDeath(t *testing.T) {
	const n, k = 3, 2
	var servers []*transport.Server
	conns := make([]transport.Conn, n)
	for i := 0; i < n; i++ {
		st, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := transport.NewServer(ln, server.New(st))
		servers = append(servers, srv)
		t.Cleanup(func() { srv.Close() })
		conn, err := transport.DialWith(srv.Addr().String(), transport.DialConfig{Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
	}
	c, err := New(conns, Options{K: k, MasterKey: []byte("test master key")})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(`CREATE TABLE emp (name VARCHAR(8), salary INT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		q := fmt.Sprintf(`INSERT INTO emp VALUES ('E%05d', %d)`, i, 1000+i)
		if _, err := c.Exec(q); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines, per = 6, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	var killOnce sync.Once
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if g == 0 && i == per/2 {
					// Kill provider 0 while statements are in flight on
					// its shared connection.
					killOnce.Do(func() { servers[0].Close() })
				}
				res, err := c.Exec(`SELECT name FROM emp WHERE salary BETWEEN 1000 AND 1049`)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d stmt %d: %w", g, i, err)
					return
				}
				if len(res.Rows) != 50 {
					errs <- fmt.Errorf("goroutine %d stmt %d: %d rows", g, i, len(res.Rows))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
