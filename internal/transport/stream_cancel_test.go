package transport

import (
	"errors"
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
