package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sssdb/internal/proto"
)

// sleepHandler answers Ping with OK and serves scans after a per-table
// delay ("slow" sleeps, everything else is immediate), tracking how many
// handlers run concurrently.
type sleepHandler struct {
	delay   time.Duration
	current atomic.Int32
	peak    atomic.Int32
	calls   atomic.Int32
}

func (h *sleepHandler) Handle(req proto.Message) proto.Message {
	cur := h.current.Add(1)
	defer h.current.Add(-1)
	for {
		p := h.peak.Load()
		if cur <= p || h.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	h.calls.Add(1)
	switch m := req.(type) {
	case *proto.PingRequest:
		return &proto.OKResponse{}
	case *proto.ScanRequest:
		if m.Table == "slow" {
			time.Sleep(h.delay)
		}
		return &proto.RowsResponse{Columns: []string{m.Table}}
	default:
		return &proto.ErrorResponse{Code: proto.CodeBadRequest, Msg: "unexpected"}
	}
}

func newTestServer(t testing.TB, h Handler, cfg ServerConfig) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(ln, h, cfg)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestMuxConcurrentInFlight proves N in-flight requests share one provider
// connection with no per-request serialization, over TCP and in-process: 8
// scans that each block the handler 50ms complete together far faster than
// 8×50ms, and the server observes them running concurrently.
func TestMuxConcurrentInFlight(t *testing.T) {
	for _, over := range []string{"tcp", "local"} {
		t.Run(over, func(t *testing.T) { testConcurrentInFlight(t, over) })
	}
}

func testConcurrentInFlight(t *testing.T, over string) {
	const n = 8
	const delay = 50 * time.Millisecond
	h := &sleepHandler{delay: delay}
	var c Conn
	if over == "tcp" {
		srv := newTestServer(t, h, ServerConfig{})
		var err error
		if c, err = DialWith(srv.Addr().String(), DialConfig{}); err != nil {
			t.Fatal(err)
		}
	} else {
		c = NewLocal(h)
	}
	defer c.Close()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Call(&proto.ScanRequest{Table: "slow"})
			if err != nil {
				errs <- err
				return
			}
			if _, ok := resp.(*proto.RowsResponse); !ok {
				errs <- fmt.Errorf("got %#v", resp)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > time.Duration(n)*delay/2 {
		t.Fatalf("%d concurrent calls took %v — requests are serializing on the connection", n, elapsed)
	}
	if peak := h.peak.Load(); peak < 2 {
		t.Fatalf("server handler peak concurrency %d; want in-flight overlap", peak)
	}
	if st := c.Stats(); st.Calls != n {
		t.Fatalf("stats %+v, want %d calls", st, n)
	}
}

// TestMuxOutOfOrderCompletion shows a delayed response being overtaken by
// a later fast one on the same connection: the fast scan must complete
// while the slow one is still pending.
func TestMuxOutOfOrderCompletion(t *testing.T) {
	h := &sleepHandler{delay: 200 * time.Millisecond}
	srv := newTestServer(t, h, ServerConfig{})
	c, err := DialWith(srv.Addr().String(), DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Prime negotiation so both timed calls ride the multiplexed path.
	if _, err := c.Call(&proto.PingRequest{}); err != nil {
		t.Fatal(err)
	}

	type done struct {
		table string
		at    time.Time
		err   error
	}
	ch := make(chan done, 2)
	issue := func(table string) {
		_, err := c.Call(&proto.ScanRequest{Table: table})
		ch <- done{table: table, at: time.Now(), err: err}
	}
	go issue("slow")
	time.Sleep(20 * time.Millisecond) // ensure the slow request is on the wire first
	go issue("fast")

	first := <-ch
	second := <-ch
	if first.err != nil || second.err != nil {
		t.Fatal(first.err, second.err)
	}
	if first.table != "fast" {
		t.Fatalf("%q completed first; the late fast response should overtake the delayed one", first.table)
	}
	if second.at.Before(first.at) {
		t.Fatal("completion timestamps out of order")
	}
}

// TestMuxStatsExact locks down byte accounting: the handshake travels as
// id-less frames, each request/response as a full frame.
func TestMuxStatsExact(t *testing.T) {
	srv := newTestServer(t, &sleepHandler{}, ServerConfig{})
	c, err := DialWith(srv.Addr().String(), DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(&proto.PingRequest{}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	hello := handshakeLen(helloBody(protoVersion, "")) // 6-byte body + 8-byte handshake header
	ping := frameLen(proto.Encode(&proto.PingRequest{}))
	if want := hello + ping; st.BytesSent != want {
		t.Fatalf("sent %d bytes, want %d", st.BytesSent, want)
	}
	ack := handshakeLen(ackBody(protoVersion))
	ok := frameLen(proto.Encode(&proto.OKResponse{}))
	if want := ack + ok; st.BytesReceived != want {
		t.Fatalf("received %d bytes, want %d", st.BytesReceived, want)
	}
	if st.Calls != 1 {
		t.Fatalf("calls %d, want 1", st.Calls)
	}
}

// rowsHandler answers any scan with n rows of two cells each: streamed in
// chunks of at most proto.BatchBytes of rows with the proof on the last, as
// a provider's cursor sends them, or whole from Handle.
type rowsHandler struct{ n int }

func (h *rowsHandler) HandleStream(req proto.Message, emit func(*proto.RowsResponse) error) (bool, error) {
	whole, ok := h.Handle(req).(*proto.RowsResponse)
	if !ok {
		return false, nil
	}
	const per = proto.BatchBytes / 32 // a row is at most 32 bytes
	for len(whole.Rows) > per {
		if err := emit(&proto.RowsResponse{Columns: whole.Columns, Rows: whole.Rows[:per]}); err != nil {
			return true, err
		}
		whole.Rows = whole.Rows[per:]
	}
	return true, emit(whole)
}

func (h *rowsHandler) Handle(req proto.Message) proto.Message {
	if _, ok := req.(*proto.ScanRequest); !ok {
		return &proto.ErrorResponse{Code: proto.CodeBadRequest, Msg: "unexpected"}
	}
	rows := make([]proto.Row, h.n)
	for i := range rows {
		rows[i] = proto.Row{
			ID:    uint64(i + 1),
			Cells: [][]byte{[]byte(fmt.Sprintf("cell-a-%04d", i)), []byte(fmt.Sprintf("cell-b-%04d", i))},
		}
	}
	return &proto.RowsResponse{Columns: []string{"a", "b"}, Rows: rows, Proof: []byte("proof")}
}

// chunkedRows is a row count whose response outgrows one chunk frame: every
// rowsHandler row is at least 23 bytes.
const chunkedRows = 2 * proto.BatchBytes / 20

// TestHandleAnswersInOneFrame: a Handle answer is one frame however large —
// only a StreamHandler's batches become chunk frames.
func TestHandleAnswersInOneFrame(t *testing.T) {
	h := &rowsHandler{n: chunkedRows}
	c := NewLocal(HandlerFunc(h.Handle))
	defer c.Close()
	var chunks int
	err := CallStream(c, &proto.ScanRequest{Table: "t"}, func(rr *proto.RowsResponse) error {
		if chunks++; len(rr.Rows) != chunkedRows || string(rr.Proof) != "proof" {
			t.Errorf("chunk %d: %d rows, proof %q", chunks, len(rr.Rows), rr.Proof)
		}
		return nil
	})
	if err != nil || chunks != 1 {
		t.Fatalf("streamed a Handle answer in %d pieces, %v; want one", chunks, err)
	}
}

// TestMuxStreamingReassembly sends a response larger than one chunk frame
// and checks that Call transparently reassembles the full response.
func TestMuxStreamingReassembly(t *testing.T) {
	const n = chunkedRows
	srv := newTestServer(t, &rowsHandler{n: n}, ServerConfig{})
	c, err := DialWith(srv.Addr().String(), DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(&proto.ScanRequest{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := resp.(*proto.RowsResponse)
	if !ok {
		t.Fatalf("got %#v", resp)
	}
	if len(rr.Rows) != n {
		t.Fatalf("reassembled %d rows, want %d", len(rr.Rows), n)
	}
	for i, row := range rr.Rows {
		if row.ID != uint64(i+1) {
			t.Fatalf("row %d has id %d; chunk order lost", i, row.ID)
		}
	}
	if string(rr.Proof) != "proof" {
		t.Fatalf("proof %q did not survive streaming", rr.Proof)
	}
	if len(rr.Columns) != 2 {
		t.Fatalf("columns %v", rr.Columns)
	}
}

// TestMuxCallStream consumes the chunk stream incrementally and checks
// that multiple chunks actually arrive.
func TestMuxCallStream(t *testing.T) {
	const n = chunkedRows
	srv := newTestServer(t, &rowsHandler{n: n}, ServerConfig{})
	c, err := DialWith(srv.Addr().String(), DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var chunks, rows int
	var proof []byte
	err = CallStream(c, &proto.ScanRequest{Table: "t"}, func(rr *proto.RowsResponse) error {
		chunks++
		rows += len(rr.Rows)
		if len(rr.Proof) > 0 {
			proof = rr.Proof
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if chunks < 2 {
		t.Fatalf("%d chunks; want a streamed sequence", chunks)
	}
	if rows != n {
		t.Fatalf("streamed %d rows, want %d", rows, n)
	}
	if string(proof) != "proof" {
		t.Fatalf("proof %q", proof)
	}
}

// callOnly is a Conn that can only Call: it answers every request with its
// handler, in the caller's goroutine.
type callOnly struct{ h Handler }

func (c callOnly) Call(req proto.Message) (proto.Message, error) { return c.h.Handle(req), nil }
func (callOnly) Stats() Stats                                    { return Stats{} }
func (callOnly) Close() error                                    { return nil }

// TestCallStreamFallback exercises the buffered fallback for conns that
// cannot stream.
func TestCallStreamFallback(t *testing.T) {
	c := callOnly{&rowsHandler{n: 10}}
	var chunks, rows int
	err := CallStream(c, &proto.ScanRequest{Table: "t"}, func(rr *proto.RowsResponse) error {
		chunks++
		rows += len(rr.Rows)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if chunks != 1 || rows != 10 {
		t.Fatalf("chunks=%d rows=%d", chunks, rows)
	}
}

// TestWrongVersionAckRejected dials a peer that acknowledges the hello
// with a version this client does not speak: the call must fail naming the
// version, and the client must close the connection rather than keep
// talking to it.
func TestWrongVersionAckRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	closed := make(chan struct{})
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := readHandshake(nc); err != nil {
			return
		}
		if err := writeHandshake(nc, ackBody(protoVersion+1)); err != nil {
			return
		}
		// The client hanging up is the only thing that ends this read.
		if _, err := readHandshake(nc); err != nil {
			close(closed)
		}
	}()
	c, err := DialWith(ln.Addr().String(), DialConfig{Timeout: 2 * time.Second, MaxRedials: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(&proto.PingRequest{})
	if want := fmt.Sprintf("protocol version %d", protoVersion+1); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("call against a version-%d peer: %v, want a version error", protoVersion+1, err)
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("client kept the connection open after a wrong-version ack")
	}
}

// TestReconnectAfterServerRestart is the connection-poisoning regression:
// a call that dies with the server must not strand the provider — once a
// server is back on the same address, the next call redials and succeeds.
func TestReconnectAfterServerRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := NewServerWith(ln, &sleepHandler{}, ServerConfig{})
	c, err := DialWith(addr, DialConfig{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(&proto.PingRequest{}); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	// The in-flight-free connection is now dead; the first call after the
	// crash may fail (no server yet) — that error must not poison the conn.
	if _, err := c.Call(&proto.PingRequest{}); err == nil {
		t.Fatal("call succeeded with the server down")
	}

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	srv2 := NewServerWith(ln2, &sleepHandler{}, ServerConfig{})
	defer srv2.Close()

	var lastErr error
	for i := 0; i < 20; i++ {
		if _, lastErr = c.Call(&proto.PingRequest{}); lastErr == nil {
			return // reconnected without a new Dial
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("connection never recovered after server restart: %v", lastErr)
}

// errListener always fails Accept, counting attempts.
type errListener struct {
	accepts atomic.Int32
	addr    net.Addr
	closed  chan struct{}
	once    sync.Once
}

func (l *errListener) Accept() (net.Conn, error) {
	l.accepts.Add(1)
	select {
	case <-l.closed:
		return nil, net.ErrClosed
	default:
		return nil, errors.New("persistent accept failure")
	}
}
func (l *errListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}
func (l *errListener) Addr() net.Addr { return l.addr }

// TestAcceptLoopBackoff verifies the accept loop backs off exponentially
// on persistent errors instead of busy-spinning.
func TestAcceptLoopBackoff(t *testing.T) {
	l := &errListener{closed: make(chan struct{}), addr: &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)}}
	srv := NewServer(l, &sleepHandler{})
	time.Sleep(200 * time.Millisecond)
	srv.Close()
	// With 5ms initial backoff doubling to 1s, 200ms admits ~6 attempts;
	// a busy spin would rack up thousands.
	if n := l.accepts.Load(); n > 20 {
		t.Fatalf("%d accept attempts in 200ms — accept loop is spinning", n)
	}
}

// TestFaultyConnConcurrentMux drives a FaultyConn wrapping a multiplexed
// TCP conn from many goroutines while faults toggle, under -race: crash
// and recover mid-traffic, a delayed call overtaken by a fast one, and a
// corrupter rewriting responses.
func TestFaultyConnConcurrentMux(t *testing.T) {
	h := &sleepHandler{delay: 50 * time.Millisecond}
	srv := newTestServer(t, h, ServerConfig{})
	inner, err := DialWith(srv.Addr().String(), DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(inner)
	defer f.Close()

	// Concurrent calls while crash toggles: every call either succeeds or
	// fails with the injected crash, never anything else.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				_, err := f.Call(&proto.PingRequest{})
				if err != nil && !errors.Is(err, ErrInjectedCrash) {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		f.Crash()
		time.Sleep(time.Millisecond)
		f.Recover()
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A delayed call is overtaken by a later fast one on the same conn.
	f.SetDelay(120 * time.Millisecond)
	type done struct {
		name string
		err  error
	}
	ch := make(chan done, 2)
	go func() {
		_, err := f.Call(&proto.ScanRequest{Table: "delayed"})
		ch <- done{"delayed", err}
	}()
	time.Sleep(10 * time.Millisecond)
	f.SetDelay(0)
	go func() {
		_, err := f.Call(&proto.ScanRequest{Table: "fast"})
		ch <- done{"fast", err}
	}()
	first := <-ch
	second := <-ch
	if first.err != nil || second.err != nil {
		t.Fatal(first.err, second.err)
	}
	if first.name != "fast" {
		t.Fatalf("%q finished first; delayed call should be overtaken", first.name)
	}

	// Corrupter applies to concurrent multiplexed responses.
	f.SetCorrupter(func(resp proto.Message) proto.Message {
		if rr, ok := resp.(*proto.RowsResponse); ok {
			rr.Columns = append(rr.Columns, "corrupted")
		}
		return resp
	})
	var cwg sync.WaitGroup
	cerrs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			resp, err := f.Call(&proto.ScanRequest{Table: "t"})
			if err != nil {
				cerrs <- err
				return
			}
			rr := resp.(*proto.RowsResponse)
			if rr.Columns[len(rr.Columns)-1] != "corrupted" {
				cerrs <- fmt.Errorf("corrupter skipped: %v", rr.Columns)
			}
		}()
	}
	cwg.Wait()
	close(cerrs)
	for err := range cerrs {
		t.Fatal(err)
	}
}

// TestMuxPerRequestTimeout checks that one slow request trips its own
// deadline while a concurrent fast request on the same conn succeeds.
func TestMuxPerRequestTimeout(t *testing.T) {
	h := &sleepHandler{delay: 500 * time.Millisecond}
	srv := newTestServer(t, h, ServerConfig{})
	c, err := DialWith(srv.Addr().String(), DialConfig{Timeout: 120 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(&proto.PingRequest{}); err != nil {
		t.Fatal(err)
	}
	type res struct {
		table string
		err   error
	}
	ch := make(chan res, 2)
	go func() {
		_, err := c.Call(&proto.ScanRequest{Table: "slow"})
		ch <- res{"slow", err}
	}()
	time.Sleep(10 * time.Millisecond)
	go func() {
		_, err := c.Call(&proto.ScanRequest{Table: "fast"})
		ch <- res{"fast", err}
	}()
	for i := 0; i < 2; i++ {
		r := <-ch
		switch r.table {
		case "slow":
			nerr, ok := r.err.(net.Error)
			if !ok || !nerr.Timeout() {
				t.Fatalf("slow call: want timeout, got %v", r.err)
			}
		case "fast":
			if r.err != nil {
				t.Fatalf("fast call failed alongside the slow one: %v", r.err)
			}
		}
	}
}
