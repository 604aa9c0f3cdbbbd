package transport

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"sssdb/internal/proto"
)

// echoHandler responds to Ping with OK and echoes scan requests back as
// row responses carrying the table name, letting tests verify dispatch.
type echoHandler struct {
	mu    sync.Mutex
	calls int
}

func (h *echoHandler) Handle(req proto.Message) proto.Message {
	h.mu.Lock()
	h.calls++
	h.mu.Unlock()
	switch m := req.(type) {
	case *proto.PingRequest:
		return &proto.OKResponse{Affected: 7}
	case *proto.ScanRequest:
		return &proto.RowsResponse{Columns: []string{m.Table}}
	default:
		return &proto.ErrorResponse{Code: proto.CodeBadRequest, Msg: "unexpected"}
	}
}

func TestLocalConnRoundTrip(t *testing.T) {
	h := &echoHandler{}
	c := NewLocal(h)
	defer c.Close()
	resp, err := c.Call(&proto.PingRequest{})
	if err != nil {
		t.Fatal(err)
	}
	ok, isOK := resp.(*proto.OKResponse)
	if !isOK || ok.Affected != 7 {
		t.Fatalf("got %#v", resp)
	}
	resp, err = c.Call(&proto.ScanRequest{Table: "employees"})
	if err != nil {
		t.Fatal(err)
	}
	rows, isRows := resp.(*proto.RowsResponse)
	if !isRows || len(rows.Columns) != 1 || rows.Columns[0] != "employees" {
		t.Fatalf("got %#v", resp)
	}
	if h.calls != 2 {
		t.Fatalf("handler saw %d calls", h.calls)
	}
}

func TestLocalConnStats(t *testing.T) {
	c := NewLocal(&echoHandler{})
	defer c.Close()
	if _, err := c.Call(&proto.PingRequest{}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Calls != 1 {
		t.Fatalf("calls = %d", st.Calls)
	}
	// An in-process connection moves the deployed protocol's bytes: a 14-byte
	// hello (8-byte handshake header, 6-byte body), then the ping's 1 body
	// byte behind the 17-byte frame header; back come a 14-byte ack and the
	// framed answer.
	if st.BytesSent != 14+17+1 {
		t.Fatalf("sent = %d, want %d", st.BytesSent, 14+17+1)
	}
	if want := 14 + frameLen(proto.Encode(&proto.OKResponse{Affected: 7})); st.BytesReceived != want {
		t.Fatalf("received = %d, want %d", st.BytesReceived, want)
	}
}

// A deadline preempts a handler that runs past it: the in-process Conn
// abandons the call, as it does over TCP, instead of waiting the handler
// out.
func TestLocalConnDeadlinePreemptsHandler(t *testing.T) {
	release := make(chan struct{})
	c := NewLocal(HandlerFunc(func(proto.Message) proto.Message {
		select {
		case <-time.After(2 * time.Second):
		case <-release:
		}
		return &proto.RowsResponse{}
	}))
	defer c.Close()
	defer close(release)
	for name, call := range map[string]func(time.Time) error{
		"call": func(d time.Time) error {
			_, err := CallWithDeadline(c, &proto.PingRequest{}, d)
			return err
		},
		"stream": func(d time.Time) error {
			return CallStreamWithDeadline(c, &proto.ScanRequest{Table: "t"}, d, func(*proto.RowsResponse) error { return nil })
		},
	} {
		start := time.Now()
		err := call(start.Add(50 * time.Millisecond))
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: err = %v, want deadline exceeded", name, err)
		}
		if el := time.Since(start); el > 500*time.Millisecond {
			t.Errorf("%s: returned after %v despite a 50ms deadline", name, el)
		}
	}
}

func TestLocalConnClosed(t *testing.T) {
	c := NewLocal(&echoHandler{})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(&proto.PingRequest{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, &echoHandler{})
	defer srv.Close()

	c, err := DialWith(srv.Addr().String(), DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 10; i++ {
		resp, err := c.Call(&proto.ScanRequest{Table: "t"})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := resp.(*proto.RowsResponse); !ok {
			t.Fatalf("got %#v", resp)
		}
	}
	st := c.Stats()
	if st.Calls != 10 || st.BytesSent == 0 || st.BytesReceived == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &echoHandler{}
	srv := NewServer(ln, h)
	defer srv.Close()

	const clients = 8
	const callsEach = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialWith(srv.Addr().String(), DialConfig{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < callsEach; j++ {
				if _, err := c.Call(&proto.PingRequest{}); err != nil {
					errs <- err
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
	if h.calls != clients*callsEach {
		t.Fatalf("handler saw %d calls, want %d", h.calls, clients*callsEach)
	}
}

// TestTCPServerRejectsNonHello opens connections with something other than
// a current-version hello — garbage, a well-formed request with no handshake (what
// a pre-handshake client would send), a hello for an older version — and
// expects each to be told why and then disconnected.
func TestTCPServerRejectsNonHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &echoHandler{}
	srv := NewServer(ln, h)
	defer srv.Close()

	for name, first := range map[string][]byte{
		"garbage":     {0xff, 0x01, 0x02},
		"bare ping":   proto.Encode(&proto.PingRequest{}),
		"older hello": helloBody(protoVersion-1, ""),
	} {
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := writeHandshake(nc, first); err != nil {
			t.Fatal(err)
		}
		body, err := readHandshake(nc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp, err := proto.Decode(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e, ok := resp.(*proto.ErrorResponse); !ok || e.Code != proto.CodeBadRequest {
			t.Fatalf("%s: got %#v", name, resp)
		}
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := readHandshake(nc); err != io.EOF {
			t.Fatalf("%s: connection still open after the rejection: %v", name, err)
		}
		nc.Close()
	}
	if h.calls != 0 {
		t.Fatalf("handler ran %d requests from connections that never said hello", h.calls)
	}
}

func TestTCPClosedConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, &echoHandler{})
	defer srv.Close()
	c, err := DialWith(srv.Addr().String(), DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // double close is fine
		t.Fatal(err)
	}
	if _, err := c.Call(&proto.PingRequest{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v", err)
	}
}

func TestFaultyCrashAndRecover(t *testing.T) {
	f := NewFaulty(NewLocal(&echoHandler{}))
	defer f.Close()
	if _, err := f.Call(&proto.PingRequest{}); err != nil {
		t.Fatal(err)
	}
	f.Crash()
	if _, err := f.Call(&proto.PingRequest{}); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("got %v", err)
	}
	f.Recover()
	if _, err := f.Call(&proto.PingRequest{}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultyCorrupter(t *testing.T) {
	f := NewFaulty(NewLocal(&echoHandler{}))
	defer f.Close()
	f.SetCorrupter(func(resp proto.Message) proto.Message {
		if ok, is := resp.(*proto.OKResponse); is {
			ok.Affected = 666
		}
		return resp
	})
	resp, err := f.Call(&proto.PingRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if ok := resp.(*proto.OKResponse); ok.Affected != 666 {
		t.Fatalf("corrupter not applied: %#v", ok)
	}
	f.SetCorrupter(nil)
	resp, err = f.Call(&proto.PingRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if ok := resp.(*proto.OKResponse); ok.Affected != 7 {
		t.Fatalf("corrupter still applied: %#v", ok)
	}
}

func TestFaultyDelay(t *testing.T) {
	f := NewFaulty(NewLocal(&echoHandler{}))
	defer f.Close()
	f.SetDelay(30 * time.Millisecond)
	start := time.Now()
	if _, err := f.Call(&proto.PingRequest{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delay not applied: %v", elapsed)
	}
}

func TestFaultyStatsPassThrough(t *testing.T) {
	f := NewFaulty(NewLocal(&echoHandler{}))
	defer f.Close()
	if _, err := f.Call(&proto.PingRequest{}); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Calls != 1 {
		t.Fatalf("stats %+v", f.Stats())
	}
}

func BenchmarkLocalCall(b *testing.B) {
	c := NewLocal(&echoHandler{})
	defer c.Close()
	req := &proto.ScanRequest{Table: "t"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPCall(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(ln, &echoHandler{})
	defer srv.Close()
	c, err := DialWith(srv.Addr().String(), DialConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := &proto.PingRequest{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(req); err != nil {
			b.Fatal(err)
		}
	}
}
