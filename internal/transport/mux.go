package transport

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sssdb/internal/proto"
)

// Dial/redial tuning.
const (
	defaultDialTimeout = 30 * time.Second
	defaultMaxRedials  = 2
	redialBackoffBase  = 25 * time.Millisecond
	redialBackoffCap   = 500 * time.Millisecond
	// consecTimeoutLimit is how many consecutive per-request timeouts a
	// multiplexed session survives before it is declared wedged and torn
	// down so the next call redials.
	consecTimeoutLimit = 3
	// streamWindow bounds chunks buffered per streaming call before the
	// reader backpressures the connection.
	streamWindow = 4
	connBufSize  = 64 << 10
	// Busy-retry tuning: a CodeServerBusy rejection was shed before
	// executing, so retrying is always safe; exponential backoff keeps
	// retries from re-contributing to the overload that shed them.
	defaultBusyRetries = 4
	busyBackoffBase    = 2 * time.Millisecond
	busyBackoffCap     = 100 * time.Millisecond
)

// DialConfig tunes a provider connection. Whatever it says, every socket
// write is bounded by writeStall (30 s), as on the provider's side: a peer
// that stops reading that long is treated as dead and its session fails.
type DialConfig struct {
	// Timeout bounds each step of a call, not the call: the TCP connect,
	// the protocol handshake, and each exchange (the request and the whole
	// chunk stream of its response). A step that overruns it fails with a
	// net.Error whose Timeout() is true. An exchange that timed out is not
	// retried, but every redial (MaxRedials) and every busy retry
	// (BusyRetries) starts its steps with a fresh Timeout, so one call can
	// last several Timeouts plus backoff. A CallDeadline deadline bounds
	// the whole call. Zero disables these bounds.
	Timeout time.Duration
	// MaxRedials caps automatic reconnect attempts per call after the
	// connection dies. 0 means the default (2); negative disables
	// reconnecting entirely.
	MaxRedials int
	// Tenant names the workload this session belongs to for the server's
	// admission scheduler: all connections announcing the same tenant share
	// one fair-scheduling queue, however many there are. Empty joins the
	// anonymous tenant.
	Tenant string
	// BusyRetries caps transparent retries (with exponential backoff) of
	// calls the server shed with CodeServerBusy. Shed requests never
	// executed, so the retry is safe even for writes. 0 means the default
	// (4); negative disables retrying, surfacing the busy error to the
	// caller.
	BusyRetries int
}

// DialWith connects to a provider at addr (host:port) with explicit
// transport configuration; a zero DialConfig takes every default. The TCP
// connection is established eagerly; protocol version negotiation happens
// lazily on the first call (under that call's deadline), so a silent peer
// surfaces as a call timeout, not a dial failure.
func DialWith(addr string, cfg DialConfig) (Conn, error) {
	dialTimeout := cfg.Timeout
	if dialTimeout == 0 {
		dialTimeout = defaultDialTimeout
	}
	c := newMuxConn(addr, cfg, func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, dialTimeout)
	})
	s, err := c.dialSession()
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c.sess = s
	return c, nil
}

// NewLocal serves h in-process and returns a Conn to it: a Server runs h
// behind a listener whose connections are net.Pipe pairs, and the Conn is
// the one DialWith builds, dialing that listener instead of TCP. An
// in-process call therefore takes every step a deployed one does —
// handshake, framing, admission, chunk and cancel frames, deadlines — with
// no socket or port. Closing the Conn stops the server.
func NewLocal(h Handler) Conn {
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	c := newMuxConn("in-process provider", DialConfig{}, ln.dial)
	c.server = NewServer(ln, h)
	return c
}

// pipeListener is an in-memory net.Listener: dial creates a net.Pipe and
// Accept hands its other end to the server.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case nc := <-l.conns:
		return nc, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// muxConn is a provider connection. It owns at most one live session at a
// time and transparently redials (capped) when the session dies, so one
// failed call no longer strands the provider until restart.
type muxConn struct {
	counters
	addr string
	cfg  DialConfig
	// dial opens a fresh connection to the provider's server.
	dial func() (net.Conn, error)
	// server, when set, is the in-process server NewLocal started; Close
	// stops it.
	server *Server

	// closeCh is closed by Close so backoff waits (busy-retry, redial)
	// abort immediately instead of sleeping out their full delay.
	closeCh chan struct{}

	mu     sync.Mutex // guards sess and closed
	sess   *session
	closed bool
}

func newMuxConn(addr string, cfg DialConfig, dial func() (net.Conn, error)) *muxConn {
	switch {
	case cfg.MaxRedials == 0:
		cfg.MaxRedials = defaultMaxRedials
	case cfg.MaxRedials < 0:
		cfg.MaxRedials = 0
	}
	switch {
	case cfg.BusyRetries == 0:
		cfg.BusyRetries = defaultBusyRetries
	case cfg.BusyRetries < 0:
		cfg.BusyRetries = 0
	}
	return &muxConn{addr: addr, cfg: cfg, dial: dial, closeCh: make(chan struct{})}
}

// session is one established connection, shared by any number of
// in-flight calls: callers write request frames through the session's
// frameWriter, and a single reader goroutine demultiplexes response frames
// into the pending map by request id.
type session struct {
	nc    net.Conn
	br    *bufio.Reader
	w     *frameWriter
	stats *counters

	// negotiated flips once the hello/ack handshake has succeeded (and the
	// reader goroutine is running).
	negotiated atomic.Bool

	// sendMu serializes the handshake.
	sendMu sync.Mutex

	nextID atomic.Uint64

	// mu guards pending, dead, and failErr.
	mu      sync.Mutex
	pending map[uint64]*pendingCall
	dead    bool
	failErr error

	// consecTimeouts counts per-request timeouts with no intervening
	// delivered response; crossing consecTimeoutLimit declares the
	// session wedged.
	consecTimeouts atomic.Int32
}

type callResult struct {
	msg proto.Message
	err error
}

// pendingCall is one in-flight request awaiting its response frames.
type pendingCall struct {
	// done receives the final result exactly once (buffered).
	done chan callResult
	// stream, when non-nil, receives row chunks for CallStream calls.
	stream chan *proto.RowsResponse
	// gone is closed when the caller abandons a streaming call (timeout or
	// chunk error) so the reader never blocks on a dead consumer. Plain
	// calls leave it nil: the reader only ever sends to the buffered done
	// channel, which cannot block.
	gone chan struct{}
	// partial accumulates chunked rows for plain Call; reader-owned.
	partial *proto.RowsResponse
}

func (c *muxConn) dialSession() (*session, error) {
	nc, err := c.dial()
	if err != nil {
		return nil, err
	}
	s := &session{
		nc:      nc,
		br:      bufio.NewReaderSize(nc, connBufSize),
		w:       newFrameWriter(nc),
		stats:   &c.counters,
		pending: make(map[uint64]*pendingCall),
	}
	return s, nil
}

// session returns the live session, redialing if the previous one died.
func (c *muxConn) session() (*session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.sess != nil && !c.sess.isDead() {
		return c.sess, nil
	}
	s, err := c.dialSession()
	if err != nil {
		return nil, err
	}
	c.sess = s
	return s, nil
}

func (s *session) isDead() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead
}

// fail declares the session dead: it fails the frame writer, which closes
// the socket (unblocking any reader or writer), and completes every pending
// call with err. Idempotent.
func (s *session) fail(err error) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return
	}
	s.dead = true
	s.failErr = err
	pending := s.pending
	s.pending = make(map[uint64]*pendingCall)
	s.mu.Unlock()
	s.w.fail(err)
	for _, pc := range pending {
		pc.done <- callResult{err: err}
	}
}

func (s *session) deathErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failErr != nil {
		return s.failErr
	}
	return ErrClosed
}

// abandon drops a pending call the caller no longer waits for.
func (s *session) abandon(id uint64) {
	s.mu.Lock()
	pc, ok := s.pending[id]
	if ok {
		delete(s.pending, id)
	}
	s.mu.Unlock()
	if ok && pc.gone != nil {
		close(pc.gone)
	}
}

// negotiate performs the hello/ack exchange once per session. Concurrent
// first calls serialize on sendMu; losers observe the winner's result.
// timeout is the caller's per-attempt budget (its Timeout tightened by any
// call deadline), so a silent peer cannot hold negotiation longer than the
// call it serves. Anything but an ack naming protoVersion is an error; the
// caller fails the session, closing the connection.
func (c *muxConn) negotiate(s *session, timeout time.Duration) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.negotiated.Load() {
		return nil
	}
	if s.isDead() {
		return s.deathErr()
	}
	if timeout > 0 {
		if err := s.nc.SetDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	hello := helloBody(protoVersion, c.cfg.Tenant)
	if err := writeHandshake(s.nc, hello); err != nil {
		return err
	}
	s.stats.sent.Add(handshakeLen(hello))
	ack, err := readHandshake(s.br)
	if err != nil {
		return err
	}
	s.stats.recv.Add(handshakeLen(ack))
	if timeout > 0 {
		// Calls use per-request timers, not socket deadlines.
		if err := s.nc.SetDeadline(time.Time{}); err != nil {
			return err
		}
	}
	v, _, ok := parseNegotiation(ack, ackPrefix)
	if !ok {
		return fmt.Errorf("transport: %s did not acknowledge the protocol hello", c.addr)
	}
	if v != protoVersion {
		return fmt.Errorf("transport: %s acknowledged protocol version %d, want %d", c.addr, v, protoVersion)
	}
	s.negotiated.Store(true)
	go s.readLoop()
	return nil
}

// Call implements Conn.
func (c *muxConn) Call(req proto.Message) (proto.Message, error) {
	return c.do(req, nil, time.Time{})
}

// CallDeadline implements DeadlineCaller: the call (including redial and
// busy-retry backoff waits) is bounded by the absolute deadline, which
// tightens the per-call Timeout when it is nearer.
func (c *muxConn) CallDeadline(req proto.Message, deadline time.Time) (proto.Message, error) {
	return c.do(req, nil, deadline)
}

// CallStream implements StreamCaller.
func (c *muxConn) CallStream(req proto.Message, yield func(*proto.RowsResponse) error) error {
	return c.CallStreamDeadline(req, time.Time{}, yield)
}

// CallStreamDeadline implements StreamDeadlineCaller; the deadline covers
// the whole chunk stream.
func (c *muxConn) CallStreamDeadline(req proto.Message, deadline time.Time, yield func(*proto.RowsResponse) error) error {
	resp, err := c.do(req, yield, deadline)
	if err != nil {
		return err
	}
	if resp == nil {
		return nil // chunks were already delivered through yield
	}
	return yieldWhole(resp, yield)
}

// do runs one call with transparent busy-retries: a response the server
// shed with CodeServerBusy (admission queue full — the request never
// executed, so replaying is safe even for writes) is retried up to
// BusyRetries times behind exponential backoff. Anything else passes
// straight through.
func (c *muxConn) do(req proto.Message, yield func(*proto.RowsResponse) error, deadline time.Time) (proto.Message, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.doOnce(req, yield, deadline)
		busy := IsBusy(err)
		if er, ok := resp.(*proto.ErrorResponse); ok && er.Code == proto.CodeServerBusy {
			busy = true
		}
		if !busy || attempt >= c.cfg.BusyRetries {
			return resp, err
		}
		if err := c.waitBackoff(busyBackoff(attempt), deadline); err != nil {
			return nil, err
		}
	}
}

// waitBackoff parks for d, aborting early when the connection closes or
// the call deadline would elapse before the wait ends. Backoff must never
// outlive the caller's interest: a closing client or an expired deadline
// gets an immediate error, not a slept-out cap.
func (c *muxConn) waitBackoff(d time.Duration, deadline time.Time) error {
	if !deadline.IsZero() && time.Until(deadline) <= d {
		return os.ErrDeadlineExceeded
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.closeCh:
		return ErrClosed
	}
}

// busyBackoff is the wait before busy-retry attempt+1: exponential from
// busyBackoffBase, capped.
func busyBackoff(attempt int) time.Duration {
	d := busyBackoffBase << attempt
	if d > busyBackoffCap || d <= 0 {
		return busyBackoffCap
	}
	return d
}

// doOnce runs one call, redialing a dead session up to MaxRedials times as
// long as the request has not touched the wire (a request that may have
// reached the provider is never replayed — the caller's failover logic
// owns that decision).
func (c *muxConn) doOnce(req proto.Message, yield func(*proto.RowsResponse) error, deadline time.Time) (proto.Message, error) {
	body := proto.Encode(req)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRedials; attempt++ {
		if attempt > 0 {
			if err := c.waitBackoff(redialBackoff(attempt), deadline); err != nil {
				if lastErr != nil && err == os.ErrDeadlineExceeded {
					return nil, fmt.Errorf("%w (last redial error: %v)", err, lastErr)
				}
				return nil, err
			}
		}
		// Per-attempt timeout: the connection's configured Timeout, tightened
		// by whatever remains until the caller's absolute deadline.
		timeout := c.cfg.Timeout
		if !deadline.IsZero() {
			rem := time.Until(deadline)
			if rem <= 0 {
				return nil, os.ErrDeadlineExceeded
			}
			if timeout == 0 || rem < timeout {
				timeout = rem
			}
		}
		s, err := c.session()
		if err != nil {
			if err == ErrClosed {
				return nil, err
			}
			lastErr = err
			continue
		}
		if !s.negotiated.Load() {
			if err := c.negotiate(s, timeout); err != nil {
				s.fail(err)
				lastErr = err
				continue
			}
		}
		// A timer fired because of the caller's deadline says nothing about
		// session health, so only Timeout-sized waits count toward wedge
		// detection.
		countWedge := timeout == c.cfg.Timeout
		resp, wrote, err := c.muxCall(s, body, yield, timeout, countWedge)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if wrote {
			return nil, err
		}
	}
	return nil, lastErr
}

func redialBackoff(attempt int) time.Duration {
	d := redialBackoffBase << (attempt - 1)
	if d > redialBackoffCap {
		return redialBackoffCap
	}
	return d
}

// muxCall runs one exchange: register a pending entry, write one request
// frame, and wait for the reader goroutine to deliver the response (or the
// per-request timer to fire).
func (c *muxConn) muxCall(s *session, body []byte, yield func(*proto.RowsResponse) error, timeout time.Duration, countWedge bool) (resp proto.Message, wrote bool, err error) {
	id := s.nextID.Add(1)
	pc := &pendingCall{done: make(chan callResult, 1)}
	if yield != nil {
		pc.stream = make(chan *proto.RowsResponse, streamWindow)
		pc.gone = make(chan struct{})
	}
	s.mu.Lock()
	if s.dead {
		err := s.failErr
		s.mu.Unlock()
		return nil, false, err
	}
	s.pending[id] = pc
	s.mu.Unlock()

	if err := s.writeRequest(id, flagFinal, body); err != nil {
		s.fail(err)
		s.abandon(id)
		return nil, true, err
	}
	c.sent.Add(frameLen(body))
	c.calls.Add(1)

	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	for {
		select {
		case chunk := <-pc.stream:
			s.consecTimeouts.Store(0)
			if err := yield(chunk); err != nil {
				s.abandon(id)
				s.sendCancel(id)
				return nil, true, err
			}
		case r := <-pc.done:
			if r.err != nil {
				return nil, true, r.err
			}
			s.consecTimeouts.Store(0)
			// done is signalled after the last chunk is buffered, so any
			// chunks still sitting in the stream channel must be yielded
			// before the call completes.
			for pc.stream != nil {
				select {
				case chunk := <-pc.stream:
					if err := yield(chunk); err != nil {
						return nil, true, err
					}
				default:
					return r.msg, true, nil
				}
			}
			return r.msg, true, nil
		case <-timeoutC:
			s.abandon(id)
			s.sendCancel(id)
			if countWedge && s.consecTimeouts.Add(1) >= consecTimeoutLimit {
				// Nothing has come back across several deadlines: the
				// connection is wedged; tear it down so the next call
				// starts fresh.
				s.fail(os.ErrDeadlineExceeded)
			}
			return nil, true, os.ErrDeadlineExceeded
		}
	}
}

// writeRequest writes one request frame; a write that fails fails the
// session.
func (s *session) writeRequest(id uint64, flags uint8, body []byte) error {
	if err := s.w.write(id, flags, body); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// sendCancel tells the server the caller abandoned a call (LIMIT satisfied,
// deadline hit), whatever its kind: a request still queued there never runs,
// and a stream stops at its next batch. Best-effort: if the write fails the
// session is torn down anyway, and if the server has already answered, the
// unknown id is ignored server-side while the demux drops whatever frames
// were in flight.
func (s *session) sendCancel(id uint64) {
	if s.writeRequest(id, flagCancel, nil) == nil {
		s.stats.sent.Add(frameLen(nil))
	}
}

// readLoop is the demux goroutine of a session: it owns the read half
// of the socket, routes every response frame to its pending call, and on
// connection death cancels everything in flight. A frame that breaks the
// protocol — undecodable, a chunk that is not rows, an unchunked frame that
// is not final — fails the session whichever call it names: nothing after
// it can be trusted.
func (s *session) readLoop() {
	for {
		id, flags, body, err := readFrame(s.br)
		if err != nil {
			s.fail(err)
			return
		}
		s.stats.recv.Add(frameLen(body))
		msg, err := proto.Decode(body)
		rr, isRows := msg.(*proto.RowsResponse)
		chunk, final := flags&flagChunk != 0, flags&flagFinal != 0
		switch {
		case err != nil:
		case chunk && !isRows:
			err = fmt.Errorf("transport: chunk frame carries %T", msg)
		case !chunk && !final:
			err = fmt.Errorf("transport: non-final %T frame without chunk flag", msg)
		}
		if err != nil {
			s.fail(err)
			return
		}
		s.mu.Lock()
		pc, ok := s.pending[id]
		if ok && final {
			delete(s.pending, id)
		}
		s.mu.Unlock()
		switch {
		case !ok:
			// An abandoned call: drop the late response.
		case !chunk:
			// A whole answer: a streaming call yields it once it completes.
			pc.done <- callResult{msg: msg}
		case pc.stream != nil:
			select {
			case pc.stream <- rr:
				if final {
					pc.done <- callResult{}
				}
			case <-pc.gone:
			}
		default:
			if pc.partial = proto.MergeRowsChunk(pc.partial, rr); final {
				pc.done <- callResult{msg: pc.partial}
			}
		}
	}
}

// Stats implements Conn.
func (c *muxConn) Stats() Stats { return c.snapshot() }

// Close implements Conn.
func (c *muxConn) Close() error {
	c.mu.Lock()
	s := c.sess
	c.sess = nil
	wasClosed := c.closed
	c.closed = true
	c.mu.Unlock()
	if !wasClosed {
		close(c.closeCh) // abort any backoff waits immediately
	}
	if s != nil {
		s.fail(ErrClosed)
	}
	if c.server != nil {
		return c.server.Close()
	}
	return nil
}
