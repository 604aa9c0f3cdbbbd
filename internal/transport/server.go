package transport

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"sync"
	"time"

	"sssdb/internal/proto"
)

// Server tuning defaults.
const (
	defaultMaxInflight   = 32
	acceptBackoffInitial = 5 * time.Millisecond
	acceptBackoffCap     = time.Second
)

// ServerConfig tunes a provider-side transport server.
type ServerConfig struct {
	// MaxInflight caps concurrently-executing handlers across the WHOLE
	// server (it was per-connection before the admission scheduler): this
	// is the global inflight budget the per-tenant queues drain into, so N
	// connections can no longer overcommit the store N-fold. 0 means the
	// default (32, floored at 2×GOMAXPROCS).
	MaxInflight int
	// MaxQueue bounds pending (admitted-but-not-executing) requests per
	// tenant; a request arriving at a full queue is shed immediately with
	// CodeServerBusy instead of waiting. 0 means the default
	// (8×MaxInflight); negative means 1.
	MaxQueue int
	// TenantWeights sets deficit-round-robin weights by tenant id (the id
	// the client sent in its hello). Unlisted tenants weigh 1. A tenant
	// with weight w gets w shares of the inflight budget under contention,
	// however many connections it opens.
	TenantWeights map[string]int
}

func (cfg ServerConfig) withDefaults() ServerConfig {
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = defaultMaxInflight
		if floor := 2 * runtime.GOMAXPROCS(0); cfg.MaxInflight < floor {
			cfg.MaxInflight = floor
		}
	}
	switch {
	case cfg.MaxQueue == 0:
		cfg.MaxQueue = 8 * cfg.MaxInflight
	case cfg.MaxQueue < 0:
		cfg.MaxQueue = 1
	}
	return cfg
}

// Server accepts framed connections and dispatches them to a Handler
// through a server-wide admission scheduler: requests from every
// connection land in per-tenant FIFO queues (the tenant is announced in
// the connection hello; anonymous connections share one queue) drained
// deficit-weighted round-robin into a global worker budget. Requests
// beyond a tenant's queue bound are shed fast with CodeServerBusy.
type Server struct {
	handler  Handler
	cfg      ServerConfig
	sched    *scheduler
	ln       net.Listener
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	done     chan struct{}
	quiesced sync.Once
	closed   sync.Once
	wg       sync.WaitGroup
}

// NewServer starts serving h on ln with default configuration. It returns
// immediately; use Close to stop.
func NewServer(ln net.Listener, h Handler) *Server {
	return NewServerWith(ln, h, ServerConfig{})
}

// NewServerWith starts serving h on ln with explicit configuration.
func NewServerWith(ln net.Listener, h Handler, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		handler: h,
		cfg:     cfg,
		sched:   newScheduler(cfg.MaxInflight, cfg.MaxQueue, cfg.TenantWeights),
		ln:      ln,
		conns:   make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// SchedStats returns a snapshot of the admission scheduler (queue depth,
// admitted/shed counts, admission-wait and handler-latency quantiles).
func (s *Server) SchedStats() SchedStats { return s.sched.stats() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := acceptBackoffInitial
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			// Transient accept error (EMFILE, a dropped handshake, ...):
			// back off exponentially instead of spinning the CPU against a
			// persistent failure, and keep serving.
			select {
			case <-s.done:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > acceptBackoffCap {
				backoff = acceptBackoffCap
			}
			continue
		}
		backoff = acceptBackoffInitial
		s.mu.Lock()
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()
	br := bufio.NewReaderSize(nc, connBufSize)
	// The first frame must be a hello this server can speak to (it also
	// names the tenant the session belongs to). Anything else — a stray
	// client, a peer from another protocol generation — is told why and
	// disconnected rather than having its bytes guessed at.
	first, err := readHandshake(br)
	if err != nil {
		return
	}
	v, tenant, isHello := parseNegotiation(first, helloPrefix)
	if !isHello || v < protoVersion {
		bad := &proto.ErrorResponse{Code: proto.CodeBadRequest, Msg: "transport: connection must open with a protocol hello"}
		_ = writeHandshake(nc, proto.Encode(bad)) // best effort: the connection closes either way
		return
	}
	if err := writeHandshake(nc, ackBody(protoVersion)); err != nil {
		return
	}
	s.serveMux(nc, br, string(tenant))
}

// serveMux runs a negotiated connection: the read side decodes request
// frames and submits each to the server-wide scheduler under this
// connection's tenant; scheduler workers write their response frames — one
// per answer, or a streamed answer's chunk frames — through the connection's
// frameWriter, so responses complete in whatever order the handlers finish.
// Requests the scheduler sheds are answered inline with CodeServerBusy
// without consuming a worker. A failed write closes the connection, ending
// this loop and failing every later write, so no writer here has anything
// left to do about one and the errors are dropped.
func (s *Server) serveMux(nc net.Conn, br *bufio.Reader, tenant string) {
	w := newFrameWriter(nc)
	// pending tracks requests this connection has handed to the scheduler
	// (queued or executing); the socket may not close until they have
	// written their frames.
	var pending sync.WaitGroup
	// cancels maps in-flight request ids to their cancellation signal. The
	// read loop registers an id before submitting its work item and
	// processes frames in order, so a cancel frame (which the client writes
	// after the request) can never observe its request as unregistered. A
	// cancel for a still-queued request closes the signal early, and
	// runRequest drops the request unrun.
	var cancelMu sync.Mutex
	cancels := make(map[uint64]chan struct{})
	unregister := func(id uint64) {
		cancelMu.Lock()
		delete(cancels, id)
		cancelMu.Unlock()
	}
	busy := func(id uint64) { _ = w.write(id, flagFinal, proto.Encode(busyResponse())) }
	for {
		id, flags, body, err := readFrame(br)
		if err != nil {
			break
		}
		if flags&flagCancel != 0 {
			cancelMu.Lock()
			if ch, ok := cancels[id]; ok {
				close(ch)
				delete(cancels, id)
			}
			cancelMu.Unlock()
			continue // cancel frames carry no body and get no response
		}
		req, err := proto.Decode(body)
		if err != nil {
			bad := &proto.ErrorResponse{Code: proto.CodeBadRequest, Msg: err.Error()}
			_ = w.write(id, flagFinal, proto.Encode(bad))
			continue
		}
		cancel := make(chan struct{})
		cancelMu.Lock()
		cancels[id] = cancel
		cancelMu.Unlock()
		pending.Add(1)
		admitted := s.sched.submit(tenant, &schedItem{enq: time.Now(), run: func() {
			defer pending.Done()
			defer unregister(id)
			s.runRequest(w, id, req, cancel)
		}, shed: func() {
			unregister(id)
			busy(id)
			pending.Done()
		}})
		if !admitted {
			unregister(id)
			pending.Done()
			busy(id)
		}
	}
	pending.Wait()
}

// runRequest executes one admitted request: a handler that streams it
// answers in chunk frames (serveStream), and Handle's answer is one frame.
// A request whose client cancelled it while it queued is dropped unrun and
// unanswered, whatever its kind: the client has already stopped waiting. A
// stats reply carries the scheduler's serving stats too, so every ping
// doubles as a queue-pressure probe.
func (s *Server) runRequest(w *frameWriter, id uint64, req proto.Message, cancel chan struct{}) {
	select {
	case <-cancel:
		return
	default:
	}
	if sh, ok := s.handler.(StreamHandler); ok && s.serveStream(sh, w, id, req, cancel) {
		return
	}
	resp := s.handler.Handle(req)
	if sr, ok := resp.(*proto.StatsResponse); ok {
		s.sched.fillStats(sr)
	}
	_ = w.write(id, flagFinal, proto.Encode(resp))
}

// serveStream runs one request through the handler's streaming path,
// writing each batch as a chunk frame as it is produced: the only source of
// chunk frames. It reports whether the handler accepted the request; false
// sends nothing and the caller falls back to Handle. Because chunk frames
// must mark the last one final, each emitted batch is held until the next
// arrives (or the stream ends): the cost is one batch of extra latency at
// the tail, not a buffered result set. Chunks go out in order and may
// interleave with other responses — every frame carries its request id. emit
// fails with ErrStreamCanceled once the client cancels, and with the write
// error once the connection is dead, so a handler stops producing as soon
// as nobody can read what it produces.
func (s *Server) serveStream(sh StreamHandler, w *frameWriter, id uint64, req proto.Message, cancel <-chan struct{}) bool {
	var held *proto.RowsResponse
	handled, err := sh.HandleStream(req, func(chunk *proto.RowsResponse) error {
		select {
		case <-cancel:
			return ErrStreamCanceled
		default:
		}
		if held != nil {
			if err := w.write(id, flagChunk, proto.Encode(held)); err != nil {
				return err
			}
		}
		held = chunk
		return nil
	})
	if !handled {
		return false
	}
	switch {
	case err == nil:
		if held == nil {
			// Defensive: a handled stream should emit its shape even when
			// empty; frame an empty result so the client is not left hanging.
			held = &proto.RowsResponse{}
		}
		_ = w.write(id, flagChunk|flagFinal, proto.Encode(held))
	case errors.Is(err, ErrStreamCanceled):
		// The client abandoned the id before sending the cancel frame, so
		// any response would be dropped on arrival; send nothing.
	default:
		// Mid-stream failure: surface the provider's error code as the
		// final frame (a dead connection fails this write too). Chunks
		// already sent are discarded client-side.
		resp := &proto.ErrorResponse{Code: proto.CodeInternal, Msg: err.Error()}
		var re *proto.RemoteError
		if errors.As(err, &re) {
			resp = &proto.ErrorResponse{Code: re.Code, Msg: re.Msg}
		}
		_ = w.write(id, flagFinal, proto.Encode(resp))
	}
	return true
}

// quiesce stops accepting new connections. Idempotent.
func (s *Server) quiesce() error {
	var err error
	s.quiesced.Do(func() {
		close(s.done)
		err = s.ln.Close()
	})
	return err
}

// Shutdown gracefully stops the server: it stops accepting connections,
// answers new and still-queued requests with CodeServerBusy, waits up to
// timeout for executing requests to finish and write their answers, then
// closes every connection and stops the scheduler. It returns true when the
// drain completed within the timeout (false means remaining work was cut
// off by the close).
func (s *Server) Shutdown(timeout time.Duration) bool {
	s.quiesce()
	s.sched.drain()
	drained := s.sched.waitIdle(timeout)
	if drained {
		// Close only the read half of each connection: its read loop sees
		// EOF and winds down through the normal path, which waits for every
		// request it admitted to write its answer before the socket closes.
		// A full close here could cut off an answer the drain just finished
		// computing.
		s.mu.Lock()
		for nc := range s.conns {
			if cr, ok := nc.(interface{ CloseRead() error }); ok {
				cr.CloseRead()
			} else {
				nc.Close()
			}
		}
		s.mu.Unlock()
		s.wg.Wait()
	}
	s.Close()
	return drained
}

// Close stops accepting, closes all connections, and waits for handlers.
// It is safe to call more than once.
func (s *Server) Close() error {
	var err error
	s.closed.Do(func() {
		err = s.quiesce()
		s.mu.Lock()
		for nc := range s.conns {
			nc.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		s.sched.close()
	})
	return err
}
