package transport

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"sssdb/internal/proto"
)

// ErrInjectedCrash is returned by a faulty connection in crash mode; it
// models a provider that is down or unreachable (the paper's benign
// failure model).
var ErrInjectedCrash = errors.New("transport: injected provider crash")

// Corrupter mutates a provider response in flight, modeling a malicious
// provider (the paper's malicious failure model). It may return the message
// unchanged.
type Corrupter func(resp proto.Message) proto.Message

// FaultyConn wraps a Conn with switchable fault injection. Faults can be
// toggled while queries run, letting experiments crash a provider
// mid-workload: calls parked in an injected delay abort as soon as Crash or
// Close fires rather than sleeping the delay out, and CrashAfterChunks lets
// a stream die after part of its result has already flowed.
type FaultyConn struct {
	inner Conn

	mu      sync.Mutex
	crashed bool
	closed  bool
	delay   time.Duration
	corrupt Corrupter
	// crashAfter, when >= 0, crashes the connection after that many stream
	// chunks have been delivered (one-shot, armed by CrashAfterChunks).
	crashAfter int
	// wake is closed by Crash/Close so delayed calls unpark immediately;
	// Recover re-arms it.
	wake chan struct{}
}

// NewFaulty wraps inner with fault controls (all disabled initially).
func NewFaulty(inner Conn) *FaultyConn {
	return &FaultyConn{inner: inner, crashAfter: -1, wake: make(chan struct{})}
}

// Crash makes every subsequent call fail with ErrInjectedCrash and aborts
// calls currently parked in an injected delay.
func (c *FaultyConn) Crash() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed = true
	c.wakeLocked()
}

// Recover clears crash mode (including a pending CrashAfterChunks trigger).
func (c *FaultyConn) Recover() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed = false
	c.crashAfter = -1
	if !c.closed {
		// Re-arm the wake channel the crash burned so future delayed calls
		// park again. A closed connection keeps the burnt channel: its calls
		// must keep failing fast.
		select {
		case <-c.wake:
			c.wake = make(chan struct{})
		default:
		}
	}
}

// CrashAfterChunks arms a one-shot mid-stream crash: the next streams
// deliver n more chunks in total, then the connection enters crash mode
// exactly as if Crash had been called. n = 0 crashes the next stream before
// its first chunk.
func (c *FaultyConn) CrashAfterChunks(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashAfter = n
}

// SetDelay injects a fixed latency before each call. The latency is
// interruptible: Crash and Close abort a parked call immediately, and a
// call deadline nearer than the delay turns the park into a timeout.
func (c *FaultyConn) SetDelay(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delay = d
}

// SetCorrupter installs (or clears, with nil) a response corrupter.
func (c *FaultyConn) SetCorrupter(f Corrupter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.corrupt = f
}

// wakeLocked unparks delayed calls; callers hold mu.
func (c *FaultyConn) wakeLocked() {
	select {
	case <-c.wake:
		// Already woken (e.g. Crash after Close); nothing parked re-arms it.
	default:
		close(c.wake)
	}
}

// gate snapshots the fault state and serves the injected delay, returning
// the error the call must fail with (nil to proceed). The delay aborts the
// moment Crash or Close fires instead of sleeping unconditionally, and a
// call deadline nearer than the delay parks only until the deadline, then
// fails with a timeout — exactly what a real slow provider looks like to a
// deadline-bounded caller.
func (c *FaultyConn) gate(deadline time.Time) (Corrupter, error) {
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		return nil, ErrInjectedCrash
	}
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	delay, corrupt, wake := c.delay, c.corrupt, c.wake
	c.mu.Unlock()
	if delay > 0 {
		timedOut := false
		if !deadline.IsZero() {
			if rem := time.Until(deadline); rem < delay {
				delay, timedOut = rem, true
			}
		}
		if delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-wake:
				t.Stop()
			}
		}
		// Re-check: the fault state may have flipped while parked, and a
		// wake can be stale (Crash then Recover before this call observed
		// either) — in that case just proceed.
		c.mu.Lock()
		crashed, closed := c.crashed, c.closed
		c.mu.Unlock()
		if crashed {
			return nil, ErrInjectedCrash
		}
		if closed {
			return nil, ErrClosed
		}
		if timedOut {
			return nil, os.ErrDeadlineExceeded
		}
	}
	return corrupt, nil
}

// Call implements Conn.
func (c *FaultyConn) Call(req proto.Message) (proto.Message, error) {
	return c.CallDeadline(req, time.Time{})
}

// CallDeadline implements DeadlineCaller: the injected delay respects the
// deadline, and the remaining budget propagates to the wrapped connection.
func (c *FaultyConn) CallDeadline(req proto.Message, deadline time.Time) (proto.Message, error) {
	corrupt, err := c.gate(deadline)
	if err != nil {
		return nil, err
	}
	resp, err := CallWithDeadline(c.inner, req, deadline)
	if err != nil {
		return nil, err
	}
	if corrupt != nil {
		resp = corrupt(resp)
	}
	return resp, nil
}

// CallStream implements StreamCaller by forwarding to the wrapped
// connection, applying the configured faults: a crashed connection fails
// before any chunk flows, a corrupter is applied to every chunk (a
// malicious provider can tamper with any part of a streamed result; one that
// turns a chunk into anything but rows fails the stream), and an
// armed CrashAfterChunks kills the stream mid-flight after its quota of
// chunks has been delivered.
func (c *FaultyConn) CallStream(req proto.Message, yield func(*proto.RowsResponse) error) error {
	return c.CallStreamDeadline(req, time.Time{}, yield)
}

// CallStreamDeadline implements StreamDeadlineCaller; the configured faults
// apply under the caller's deadline exactly as in CallDeadline.
func (c *FaultyConn) CallStreamDeadline(req proto.Message, deadline time.Time, yield func(*proto.RowsResponse) error) error {
	corrupt, err := c.gate(deadline)
	if err != nil {
		return err
	}
	wrapped := func(chunk *proto.RowsResponse) error {
		c.mu.Lock()
		if c.crashed {
			c.mu.Unlock()
			return ErrInjectedCrash
		}
		if c.crashAfter == 0 {
			// Quota exhausted: flip into crash mode (one-shot) and kill the
			// stream with the chunk undelivered.
			c.crashed = true
			c.crashAfter = -1
			c.wakeLocked()
			c.mu.Unlock()
			return ErrInjectedCrash
		}
		if c.crashAfter > 0 {
			c.crashAfter--
		}
		c.mu.Unlock()
		if corrupt != nil {
			// A chunk that is not rows fails the stream, as the mux fails a
			// session on one.
			m := corrupt(chunk)
			var ok bool
			if chunk, ok = m.(*proto.RowsResponse); !ok {
				return fmt.Errorf("transport: chunk frame carries %T", m)
			}
		}
		return yield(chunk)
	}
	return CallStreamWithDeadline(c.inner, req, deadline, wrapped)
}

// Stats implements Conn.
func (c *FaultyConn) Stats() Stats { return c.inner.Stats() }

// Close implements Conn.
func (c *FaultyConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.wakeLocked()
	c.mu.Unlock()
	return c.inner.Close()
}
