package transport

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"sssdb/internal/proto"
)

// A call deadline nearer than the injected delay must park only until the
// deadline and then fail like a timeout — not sleep the full delay out —
// on a plain call and on a stream alike.
func TestFaultyDelayRespectsDeadline(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(t *testing.T, fc *FaultyConn, deadline time.Time) error
	}{
		{"call", func(t *testing.T, fc *FaultyConn, deadline time.Time) error {
			_, err := fc.CallDeadline(&proto.PingRequest{}, deadline)
			return err
		}},
		{"stream", func(t *testing.T, fc *FaultyConn, deadline time.Time) error {
			return fc.CallStreamDeadline(&proto.ScanRequest{}, deadline, func(*proto.RowsResponse) error {
				t.Error("chunk delivered past deadline")
				return nil
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc := NewFaulty(NewLocal(HandlerFunc(func(m proto.Message) proto.Message {
				return &proto.OKResponse{}
			})))
			defer fc.Close()
			fc.SetDelay(5 * time.Second)
			start := time.Now()
			if err := tc.call(t, fc, time.Now().Add(30*time.Millisecond)); !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("err = %v, want deadline exceeded", err)
			}
			if el := time.Since(start); el > 2*time.Second {
				t.Fatalf("parked %v despite 30ms deadline", el)
			}
			// Without a deadline the same call must still be interruptible by
			// Crash (covered elsewhere) and get through once the delay is
			// cleared.
			fc.SetDelay(0)
			if _, err := fc.Call(&proto.PingRequest{}); err != nil {
				t.Fatalf("after clearing delay: %v", err)
			}
		})
	}
}

// silentListener accepts connections and never speaks; DialWith succeeds
// (the TCP connect completes) while every call stalls.
func silentListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()
	return ln
}

// Close must abort a backoff park immediately: a closing client cannot sit
// out a busy-retry or redial backoff.
func TestWaitBackoffAbortsOnClose(t *testing.T) {
	conn, err := DialWith(silentListener(t).Addr().String(), DialConfig{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tc := conn.(*muxConn)
	done := make(chan error, 1)
	go func() { done <- tc.waitBackoff(time.Minute, time.Time{}) }()
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	conn.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waitBackoff did not abort on Close")
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("abort took %v", el)
	}
}

// A deadline that would elapse during the backoff converts the park into
// an immediate deadline error.
func TestWaitBackoffRespectsDeadline(t *testing.T) {
	conn, err := DialWith(silentListener(t).Addr().String(), DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tc := conn.(*muxConn)
	start := time.Now()
	if err := tc.waitBackoff(time.Minute, time.Now().Add(10*time.Millisecond)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("waited %v for an already-doomed backoff", el)
	}
}

// An end-to-end deadline bounds a call whose server never answers: the
// per-attempt timeout tightens to the remaining budget instead of running
// the full configured Timeout per redial attempt.
func TestCallDeadlineBoundsSilentServer(t *testing.T) {
	conn, err := DialWith(silentListener(t).Addr().String(), DialConfig{Timeout: 10 * time.Second, MaxRedials: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dc := conn.(DeadlineCaller)
	start := time.Now()
	_, err = dc.CallDeadline(&proto.PingRequest{}, time.Now().Add(100*time.Millisecond))
	if err == nil {
		t.Fatal("call against a silent server succeeded")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("call took %v despite 100ms deadline", el)
	}
}

// An already-expired deadline fails fast on an in-process conn too.
func TestLocalConnExpiredDeadline(t *testing.T) {
	conn := NewLocal(HandlerFunc(func(m proto.Message) proto.Message {
		return &proto.OKResponse{}
	}))
	defer conn.Close()
	dc := conn.(DeadlineCaller)
	if _, err := dc.CallDeadline(&proto.PingRequest{}, time.Now().Add(-time.Second)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// A zero deadline stays unbounded.
	if _, err := dc.CallDeadline(&proto.PingRequest{}, time.Time{}); err != nil {
		t.Fatalf("zero deadline: %v", err)
	}
}
