package transport

import (
	"net"
	"testing"
	"time"

	"sssdb/internal/proto"
)

// A provider that accepts connections but never answers must trip the
// per-call deadline instead of hanging the client forever.
func TestDialTimeoutTripsOnSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			// Read the request but never respond.
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := nc.Read(buf); err != nil {
						nc.Close()
						return
					}
				}
			}()
		}
	}()
	c, err := DialWith(ln.Addr().String(), DialConfig{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Call(&proto.PingRequest{})
	if err == nil {
		t.Fatal("call to silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not trip promptly: %v", elapsed)
	}
	nerr, ok := err.(net.Error)
	if !ok || !nerr.Timeout() {
		t.Fatalf("expected a timeout error, got %v", err)
	}
}

// A responsive server is unaffected by the deadline.
func TestDialTimeoutNormalOperation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, &echoHandler{})
	defer srv.Close()
	c, err := DialWith(srv.Addr().String(), DialConfig{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if _, err := c.Call(&proto.PingRequest{}); err != nil {
			t.Fatal(err)
		}
	}
}

// Dialing a dead endpoint fails fast with a timeout configured.
func TestDialTimeoutConnectFailure(t *testing.T) {
	// Reserve and release a port so nothing is listening there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	start := time.Now()
	if _, err := DialWith(addr, DialConfig{Timeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("dial did not fail promptly: %v", elapsed)
	}
}
