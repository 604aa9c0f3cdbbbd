package transport

import (
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"sssdb/internal/proto"
)

// cancelObserver streams row chunks forever (well beyond any test budget)
// and records when its emit callback reports client cancellation. It is
// how a provider-side cursor experiences a LIMIT-satisfied client.
type cancelObserver struct {
	emitted  atomic.Int32
	canceled chan struct{} // closed when emit returns ErrStreamCanceled
	finished chan struct{} // closed when HandleStream returns
}

func (h *cancelObserver) Handle(req proto.Message) proto.Message {
	if _, ok := req.(*proto.PingRequest); ok {
		return &proto.OKResponse{}
	}
	return &proto.ErrorResponse{Code: proto.CodeBadRequest, Msg: "buffered path unexpected"}
}

func (h *cancelObserver) HandleStream(req proto.Message, emit func(*proto.RowsResponse) error) (bool, error) {
	if _, ok := req.(*proto.ScanRequest); !ok {
		return false, nil
	}
	defer close(h.finished)
	for i := 0; i < 1_000_000; i++ {
		chunk := &proto.RowsResponse{
			Columns: []string{"a"},
			Rows:    []proto.Row{{ID: uint64(i + 1), Cells: [][]byte{[]byte("cell")}}},
		}
		if err := emit(chunk); err != nil {
			if errors.Is(err, ErrStreamCanceled) {
				close(h.canceled)
			}
			return true, err
		}
		h.emitted.Add(1)
		// Pace the stream so the test exercises cancel-in-flight rather
		// than filling kernel socket buffers as fast as possible.
		time.Sleep(200 * time.Microsecond)
	}
	return true, nil
}

// TestStreamCancelReachesHandler proves the backpressure contract end to
// end over TCP: when the client's yield stops the stream (LIMIT satisfied),
// the transport sends a cancel frame and the provider-side handler observes
// ErrStreamCanceled from emit instead of producing the rest of the cursor.
func TestStreamCancelReachesHandler(t *testing.T) {
	h := &cancelObserver{canceled: make(chan struct{}), finished: make(chan struct{})}
	srv := newTestServer(t, h, ServerConfig{})
	c, err := DialWith(srv.Addr().String(), DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop := errors.New("limit satisfied")
	got := 0
	err = CallStream(c, &proto.ScanRequest{Table: "t"}, func(rr *proto.RowsResponse) error {
		got += len(rr.Rows)
		if got >= 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("CallStream err %v, want the yield error", err)
	}
	select {
	case <-h.canceled:
	case <-time.After(10 * time.Second):
		t.Fatalf("handler never observed ErrStreamCanceled (emitted %d chunks)", h.emitted.Load())
	}
	<-h.finished
	if n := h.emitted.Load(); n >= 1_000_000 {
		t.Fatalf("handler ran to completion (%d chunks) despite cancel", n)
	}
	// The connection must remain usable for the next request: cancellation
	// is per-stream, not per-connection.
	if resp, err := c.Call(&proto.PingRequest{}); err != nil {
		t.Fatalf("Call after cancel: %v", err)
	} else if _, ok := resp.(*proto.OKResponse); !ok {
		t.Fatalf("Call after cancel returned %T", resp)
	}
}

// errorAfterHandler streams a few chunks then fails mid-stream.
type errorAfterHandler struct{ n int }

func (h *errorAfterHandler) Handle(req proto.Message) proto.Message {
	if _, ok := req.(*proto.PingRequest); ok {
		return &proto.OKResponse{}
	}
	return &proto.ErrorResponse{Code: proto.CodeBadRequest, Msg: "buffered path unexpected"}
}

func (h *errorAfterHandler) HandleStream(req proto.Message, emit func(*proto.RowsResponse) error) (bool, error) {
	if _, ok := req.(*proto.ScanRequest); !ok {
		return false, nil
	}
	for i := 0; i < h.n; i++ {
		chunk := &proto.RowsResponse{
			Columns: []string{"a"},
			Rows:    []proto.Row{{ID: uint64(i + 1), Cells: [][]byte{[]byte("cell")}}},
		}
		if err := emit(chunk); err != nil {
			return true, err
		}
	}
	return true, &proto.RemoteError{Code: proto.CodeInternal, Msg: "cursor torn"}
}

// TestStreamMidStreamError checks that a provider failing partway through a
// stream surfaces its error code to the caller as the final frame.
func TestStreamMidStreamError(t *testing.T) {
	srv := newTestServer(t, &errorAfterHandler{n: 4}, ServerConfig{})
	c, err := DialWith(srv.Addr().String(), DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got := 0
	err = CallStream(c, &proto.ScanRequest{Table: "t"}, func(rr *proto.RowsResponse) error {
		got += len(rr.Rows)
		return nil
	})
	var re *proto.RemoteError
	if !errors.As(err, &re) || re.Code != proto.CodeInternal {
		t.Fatalf("CallStream err %v, want RemoteError CodeInternal", err)
	}
	if got >= 4 {
		// The final (held-back) chunk is discarded on error; at most n-1
		// chunks can have been yielded.
		t.Fatalf("yielded %d rows, want < 4", got)
	}
	if _, err := c.Call(&proto.PingRequest{}); err != nil {
		t.Fatalf("Call after stream error: %v", err)
	}
}

// pacedStreamer streams n chunks of one 32 KiB cell each, pausing between
// them, and counts the chunks emit accepted.
type pacedStreamer struct {
	n        int
	pause    time.Duration
	emitted  atomic.Int32
	finished chan struct{} // closed when HandleStream returns
}

func newPacedStreamer(n int, pause time.Duration) *pacedStreamer {
	return &pacedStreamer{n: n, pause: pause, finished: make(chan struct{})}
}

func (h *pacedStreamer) Handle(proto.Message) proto.Message {
	return &proto.ErrorResponse{Code: proto.CodeBadRequest, Msg: "buffered path unexpected"}
}

func (h *pacedStreamer) HandleStream(req proto.Message, emit func(*proto.RowsResponse) error) (bool, error) {
	defer close(h.finished)
	cell := make([]byte, 32<<10)
	for i := 0; i < h.n; i++ {
		chunk := &proto.RowsResponse{Columns: []string{"a"}, Rows: []proto.Row{{ID: uint64(i + 1), Cells: [][]byte{cell}}}}
		if err := emit(chunk); err != nil {
			return true, err
		}
		h.emitted.Add(1)
		time.Sleep(h.pause)
	}
	return true, nil
}

// TestStreamStopsWhenClientGone holds the provider to its client's life
// over TCP: once the client closes its connection mid-stream, emit must fail
// with the write error and the handler must stop, not produce the rest of a
// 100,000-chunk cursor for nobody (and hold Server.Close until it has).
func TestStreamStopsWhenClientGone(t *testing.T) {
	h := newPacedStreamer(100_000, 200*time.Microsecond)
	srv := newTestServer(t, h, ServerConfig{})
	c, err := DialWith(srv.Addr().String(), DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = CallStream(c, &proto.ScanRequest{Table: "t"}, func(*proto.RowsResponse) error {
		c.Close()
		return nil
	})
	if err == nil {
		t.Fatal("stream completed after its client closed")
	}
	select {
	case <-h.finished:
		t.Logf("handler stopped after %d chunks", h.emitted.Load())
	case <-time.After(5 * time.Second):
		t.Fatalf("handler still streaming 5s after its client closed (%d chunks emitted)", h.emitted.Load())
	}
}

// TestStalledReaderBoundsServer holds what a provider produces for a client
// that stops reading: while the in-process client's first yield blocks, the
// handler may run ahead only by what the client's stream window, the
// connection's buffers and the frame writer's bound hold, not by a response
// queue of its own. Once the reader resumes, every chunk still arrives.
func TestStalledReaderBoundsServer(t *testing.T) {
	const maxAhead = 24
	h := newPacedStreamer(200, 0)
	c := NewLocal(h)
	defer c.Close()
	rows := 0
	ahead := int32(-1)
	err := CallStream(c, &proto.ScanRequest{Table: "t"}, func(rr *proto.RowsResponse) error {
		if rows += len(rr.Rows); ahead < 0 {
			time.Sleep(500 * time.Millisecond)
			ahead = h.emitted.Load()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("handler emitted %d chunks while its reader stalled", ahead)
	if ahead > maxAhead {
		t.Fatalf("handler emitted %d chunks of 32 KiB while its reader stalled, want at most %d", ahead, maxAhead)
	}
	if rows != h.n {
		t.Fatalf("received %d rows, want %d", rows, h.n)
	}
}

// TestCancelWhileQueuedSkipsHandler: a call abandoned while its request
// still queued at the provider never reaches the handler. With one worker
// held by a blocked request, a ping times out in the queue; its cancel frame
// arrives before the worker frees up, so the ping is dropped unrun.
func TestCancelWhileQueuedSkipsHandler(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{})}
	srv := newTestServer(t, h, ServerConfig{MaxInflight: 1})
	c, err := DialWith(srv.Addr().String(), DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	calls := make(chan error, 2)
	call := func() {
		_, err := c.Call(&proto.ScanRequest{Table: "t"})
		calls <- err
	}
	go call()
	waitFor(t, "the first request to hold the worker", func() bool { return h.started.Load() == 1 })
	if _, err := CallWithDeadline(c, &proto.PingRequest{}, time.Now().Add(50*time.Millisecond)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("queued ping: %v, want os.ErrDeadlineExceeded", err)
	}
	// The server reads a connection's frames in order, so once the request
	// sent after the ping's cancel frame is queued, that cancel has landed.
	go call()
	waitFor(t, "the ping and the next request to queue", func() bool { return srv.SchedStats().QueueDepth == 2 })
	h.unblock()
	for i := 0; i < 2; i++ {
		if err := <-calls; err != nil {
			t.Fatal(err)
		}
	}
	// The queue is FIFO and the ping was ahead of the last request: by now
	// it has either run or been dropped.
	if n := h.pings.Load(); n != 0 {
		t.Fatalf("the handler ran a ping its client had cancelled while it queued (%d runs)", n)
	}
}

// TestAbandonedCallStopsStream: a plain call whose deadline passes stops a
// provider that streams its answer, as a streaming call does: the client
// sends the cancel frame and the handler's next emit fails, a few chunks
// past the deadline instead of at the end of its 100.
func TestAbandonedCallStopsStream(t *testing.T) {
	const pause, deadline, maxChunks = 5 * time.Millisecond, 50 * time.Millisecond, 20
	h := newPacedStreamer(100, pause)
	c := NewLocal(h)
	defer c.Close()
	if _, err := CallWithDeadline(c, &proto.ScanRequest{Table: "t"}, time.Now().Add(deadline)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("call past its deadline: %v, want os.ErrDeadlineExceeded", err)
	}
	select {
	case <-h.finished:
	case <-time.After(5 * time.Second):
		t.Fatalf("handler still streaming 5s after its client gave up (%d chunks)", h.emitted.Load())
	}
	t.Logf("handler stopped after %d chunks", h.emitted.Load())
	if n := h.emitted.Load(); n > maxChunks {
		t.Fatalf("handler emitted %d of %d chunks for a call abandoned after %v, want at most %d", n, h.n, deadline, maxChunks)
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for start := time.Now(); !cond(); time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
