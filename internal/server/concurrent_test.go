package server

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"sssdb/internal/proto"
	"sssdb/internal/transport"
)

// TestHandleConcurrentMixed hammers one Provider from many goroutines with
// mixed reads and writes — the dispatch pattern of the multiplexed
// transport's worker pool. Run under -race in CI.
func TestHandleConcurrentMixed(t *testing.T) {
	p := newProvider(t)
	if resp := p.Handle(&proto.CreateTableRequest{Spec: spec()}); resp.Kind() != proto.KOK {
		t.Fatalf("create: %#v", resp)
	}
	const writers, readers, per = 4, 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := uint64(1 + w*per + i)
				resp := p.Handle(&proto.InsertRequest{Table: "t", Rows: []proto.Row{
					{ID: id, Cells: [][]byte{oppCell(id), cell8(id)}},
				}})
				if resp.Kind() != proto.KOK {
					errs <- fmt.Errorf("insert %d: %#v", id, resp)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				resp := scan(p, &proto.ScanRequest{Table: "t"})
				if _, ok := resp.(*proto.RowsResponse); !ok {
					errs <- fmt.Errorf("scan: %#v", resp)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	final := scan(p, &proto.ScanRequest{Table: "t"})
	rr, ok := final.(*proto.RowsResponse)
	if !ok || len(rr.Rows) != writers*per {
		t.Fatalf("final scan: %#v", final)
	}
}

// TestProviderOverMuxTransport runs the full provider behind a real
// multiplexed TCP server and drives it with concurrent statements sharing
// one connection.
func TestProviderOverMuxTransport(t *testing.T) {
	p := newProvider(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(ln, p)
	defer srv.Close()
	conn, err := transport.DialWith(srv.Addr().String(), transport.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if resp, err := conn.Call(&proto.CreateTableRequest{Spec: spec()}); err != nil || resp.Kind() != proto.KOK {
		t.Fatalf("create: %#v %v", resp, err)
	}
	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := uint64(1 + g*per + i)
				resp, err := conn.Call(&proto.InsertRequest{Table: "t", Rows: []proto.Row{
					{ID: id, Cells: [][]byte{oppCell(id), cell8(id)}},
				}})
				if err != nil {
					errs <- err
					return
				}
				if resp.Kind() != proto.KOK {
					errs <- fmt.Errorf("insert: %#v", resp)
					return
				}
				if _, err := conn.Call(&proto.ScanRequest{Table: "t", Limit: 5}); err != nil {
					errs <- err
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
	resp, err := conn.Call(&proto.ScanRequest{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if rr := resp.(*proto.RowsResponse); len(rr.Rows) != goroutines*per {
		t.Fatalf("got %d rows, want %d", len(rr.Rows), goroutines*per)
	}
}
