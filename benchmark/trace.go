package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sssdb/internal/proto"
	"sssdb/internal/transport"
)

// Tracing is done from outside the program: a transport.Conn wrapper around
// each client connection and a transport.Handler wrapper around each
// provider's handler record a span per call, and the load driver records a
// span per statement. With one worker the spans of one statement nest by
// time containment, so no identifier has to cross the wire.

// layer is where a span was taken, named after the package whose boundary it
// times.
type layer uint8

const (
	layerClient    layer = iota + 1 // one statement, recorded by the load driver
	layerTransport                  // one Conn.Call / CallStream
	layerServer                     // one Handler.Handle / HandleStream
)

func (l layer) String() string {
	return [...]string{"", "client", "transport", "server"}[l]
}

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch on the process's monotonic clock. The struct holds no pointers, so
// a few hundred thousand of them cost the collector nothing to scan.
type span struct {
	Layer layer
	// Kind is the statement class (an opClass) on client spans and the
	// request's proto.Kind on the others.
	Kind     uint8
	Provider int16 // -1 for client spans
	// Stream marks a span taken on the streaming form of its boundary
	// (CallStream, HandleStream); First is when a streamed call delivered
	// its first chunk.
	Stream bool
	// Canceled marks a call the client abandoned (LIMIT reached) or that
	// failed: its handler may outlive it.
	Canceled bool
	// Rows counts rows a handler emitted, or rows a statement returned to
	// its caller.
	Rows       int32
	Start, End int64
	First      int64
}

// kindName names what the span timed: "read", "write"… or "Scan", "Insert"…
func (s span) kindName() string {
	if s.Layer == layerClient {
		return classNames[s.Kind]
	}
	return requestName(proto.Kind(s.Kind))
}

// MarshalJSON writes the span with its layer and kind by name.
func (s span) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Layer    string `json:"layer"`
		Kind     string `json:"kind"`
		Provider int16  `json:"provider"`
		Start    int64  `json:"start"`
		End      int64  `json:"end"`
		First    int64  `json:"first,omitempty"`
		Stream   bool   `json:"stream,omitempty"`
		Rows     int32  `json:"rows,omitempty"`
		Canceled bool   `json:"canceled,omitempty"`
	}{s.Layer.String(), s.kindName(), s.Provider, s.Start, s.End, s.First, s.Stream, s.Rows, s.Canceled})
}

// tracer collects spans in memory, plus the first request of each kind each
// provider was sent and the largest row chunk seen, which the codec and
// store probes replay.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	// busy counts wrapped calls and handlers in flight, recorded or not.
	busy atomic.Int64
	// chunkRows is the row count of the largest chunk captured so far, read
	// without the lock to dismiss smaller chunks.
	chunkRows atomic.Int64

	mu    sync.Mutex
	spans []span
	reqs  map[reqKey]proto.Message
	chunk *proto.RowsResponse
}

// reqKey files a captured request: its filter bounds are shares, so it only
// means something to the provider it was built for.
type reqKey struct {
	provider int
	kind     proto.Kind
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), reqs: make(map[reqKey]proto.Message)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// enter marks one wrapped call or handler as in flight and reports whether
// it is to be recorded; leave ends it.
func (t *tracer) enter() bool {
	t.busy.Add(1)
	return t.on.Load()
}

func (t *tracer) leave() { t.busy.Add(-1) }

// record switches recording on or off once nothing is in flight. A hedged
// or abandoned request can outlive its statement; if its call began
// unrecorded and its handler began after recording was switched on, the
// trace would hold a handler span with no call around it. Switching off
// waits the same way, so that slices with and without recording start from
// the same quiet state and their rates can be compared.
func (t *tracer) record(on bool) {
	for quiet, waited := 0, 0; quiet < 2 && waited < 1000; waited++ {
		quiet++
		if t.busy.Load() != 0 {
			quiet = 0
		}
		time.Sleep(time.Millisecond)
	}
	t.on.Store(on)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) captureRequest(provider int, req proto.Message) {
	k := reqKey{provider, req.Kind()}
	t.mu.Lock()
	if _, seen := t.reqs[k]; !seen {
		t.reqs[k] = req
	}
	t.mu.Unlock()
}

// captured returns the request of the given kind sent to the lowest-numbered
// provider that received one.
func (t *tracer) captured(kind proto.Kind) (provider int, req proto.Message) {
	t.mu.Lock()
	defer t.mu.Unlock()
	provider = -1
	for k, m := range t.reqs {
		if k.kind == kind && (provider < 0 || k.provider < provider) {
			provider, req = k.provider, m
		}
	}
	return provider, req
}

func (t *tracer) captureChunk(c *proto.RowsResponse) {
	if int64(len(c.Rows)) <= t.chunkRows.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.chunk != nil && len(c.Rows) <= len(t.chunk.Rows) {
		return
	}
	t.chunkRows.Store(int64(len(c.Rows)))
	// The client may reuse the chunk's buffers; keep a private copy.
	if m, err := proto.Decode(proto.Encode(c)); err == nil {
		t.chunk = m.(*proto.RowsResponse)
	}
}

func (t *tracer) largestChunk() *proto.RowsResponse {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.chunk
}

// requestNames names request kinds by their message types.
var requestNames = map[proto.Kind]string{
	proto.KPing: "Ping", proto.KCreateTable: "CreateTable", proto.KDropTable: "DropTable",
	proto.KListTables: "ListTables", proto.KInsert: "Insert", proto.KDelete: "Delete",
	proto.KUpdate: "Update", proto.KScan: "Scan", proto.KAggregate: "Aggregate", proto.KJoin: "Join",
	proto.KDigest: "Digest", proto.KTableState: "TableState", proto.KTxPrepare: "TxPrepare",
	proto.KTxCommit: "TxCommit", proto.KTxAbort: "TxAbort",
}

func requestName(k proto.Kind) string {
	if name, ok := requestNames[k]; ok {
		return name
	}
	return fmt.Sprintf("Kind%d", k)
}

// fullConn is everything the multiplexed TCP connection implements. The
// client picks its code path by type-asserting for the optional interfaces,
// so a wrapper that dropped one would silently move traced statements onto
// a different path than the measured ones.
type fullConn interface {
	transport.Conn
	transport.StreamCaller
	transport.DeadlineCaller
	transport.StreamDeadlineCaller
}

// tracedConn times every call on one provider connection.
type tracedConn struct {
	inner    fullConn
	provider int16
	tr       *tracer
	// seen marks the request kinds already handed to the tracer for the
	// probes, so that only the first of each kind takes its lock.
	seen [64]atomic.Bool
}

var _ fullConn = (*tracedConn)(nil)

// traceConn wraps c. It refuses a connection that lacks any of the optional
// call interfaces, because the wrapper would then advertise more than the
// connection it wraps.
func traceConn(c transport.Conn, provider int, tr *tracer) (transport.Conn, error) {
	fc, ok := c.(fullConn)
	if !ok {
		return nil, fmt.Errorf("trace: %T lacks an optional call interface; the wrapper would change the client's path", c)
	}
	return &tracedConn{inner: fc, provider: int16(provider), tr: tr}, nil
}

func (c *tracedConn) Stats() transport.Stats { return c.inner.Stats() }
func (c *tracedConn) Close() error           { return c.inner.Close() }

func (c *tracedConn) Call(req proto.Message) (proto.Message, error) {
	return c.call(req, func() (proto.Message, error) { return c.inner.Call(req) })
}

func (c *tracedConn) CallDeadline(req proto.Message, deadline time.Time) (proto.Message, error) {
	return c.call(req, func() (proto.Message, error) { return c.inner.CallDeadline(req, deadline) })
}

func (c *tracedConn) call(req proto.Message, do func() (proto.Message, error)) (proto.Message, error) {
	defer c.tr.leave()
	if !c.tr.enter() {
		return do()
	}
	c.capture(req)
	start := c.tr.now()
	resp, err := do()
	c.tr.add(span{Layer: layerTransport, Kind: uint8(req.Kind()), Provider: c.provider,
		Start: start, End: c.tr.now(), Canceled: err != nil})
	return resp, err
}

func (c *tracedConn) capture(req proto.Message) {
	if k := int(req.Kind()); k < len(c.seen) && !c.seen[k].Swap(true) {
		c.tr.captureRequest(int(c.provider), req)
	}
}

func (c *tracedConn) CallStream(req proto.Message, yield func(*proto.RowsResponse) error) error {
	return c.stream(req, yield, func(y func(*proto.RowsResponse) error) error {
		return c.inner.CallStream(req, y)
	})
}

func (c *tracedConn) CallStreamDeadline(req proto.Message, deadline time.Time, yield func(*proto.RowsResponse) error) error {
	return c.stream(req, yield, func(y func(*proto.RowsResponse) error) error {
		return c.inner.CallStreamDeadline(req, deadline, y)
	})
}

func (c *tracedConn) stream(req proto.Message, yield func(*proto.RowsResponse) error,
	do func(func(*proto.RowsResponse) error) error) error {
	defer c.tr.leave()
	if !c.tr.enter() {
		return do(yield)
	}
	c.capture(req)
	s := span{Layer: layerTransport, Kind: uint8(req.Kind()), Provider: c.provider, Stream: true, Start: c.tr.now()}
	err := do(func(chunk *proto.RowsResponse) error {
		if s.First == 0 {
			s.First = c.tr.now()
		}
		c.tr.captureChunk(chunk)
		return yield(chunk)
	})
	s.End = c.tr.now()
	s.Canceled = err != nil
	c.tr.add(s)
	return err
}

// fullHandler is what server.Provider implements.
type fullHandler interface {
	transport.Handler
	transport.StreamHandler
}

// tracedHandler times every request one provider serves.
type tracedHandler struct {
	inner    fullHandler
	provider int16
	tr       *tracer
}

var _ fullHandler = (*tracedHandler)(nil)

// traceHandler wraps h, refusing a handler without a streaming form for
// the same reason traceConn refuses a partial connection.
func traceHandler(h transport.Handler, provider int, tr *tracer) (transport.Handler, error) {
	fh, ok := h.(fullHandler)
	if !ok {
		return nil, fmt.Errorf("trace: %T is not a StreamHandler; the wrapper would change the server's path", h)
	}
	return &tracedHandler{inner: fh, provider: int16(provider), tr: tr}, nil
}

func (h *tracedHandler) Handle(req proto.Message) proto.Message {
	defer h.tr.leave()
	if !h.tr.enter() {
		return h.inner.Handle(req)
	}
	s := span{Layer: layerServer, Kind: uint8(req.Kind()), Provider: h.provider, Start: h.tr.now()}
	resp := h.inner.Handle(req)
	s.End = h.tr.now()
	if rr, ok := resp.(*proto.RowsResponse); ok {
		s.Rows = int32(len(rr.Rows))
	}
	h.tr.add(s)
	return resp
}

func (h *tracedHandler) HandleStream(req proto.Message, emit func(*proto.RowsResponse) error) (bool, error) {
	defer h.tr.leave()
	if !h.tr.enter() {
		return h.inner.HandleStream(req, emit)
	}
	s := span{Layer: layerServer, Kind: uint8(req.Kind()), Provider: h.provider, Stream: true, Start: h.tr.now()}
	handled, err := h.inner.HandleStream(req, func(chunk *proto.RowsResponse) error {
		s.Rows += int32(len(chunk.Rows))
		return emit(chunk)
	})
	if handled {
		// A declined request falls back to Handle, which records the span.
		s.End = h.tr.now()
		h.tr.add(s)
	}
	return handled, err
}

// writeFile writes the spans as one JSON document.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Unit  string `json:"time_unit"`
		Spans []span `json:"spans"`
	}{"ns since trace start", t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceSummary is what the per-layer table takes from a traced run.
type traceSummary struct {
	statements int
	stmtUS     float64 // mean statement span
	selfUS     float64 // mean statement self time
	callsPerOp float64
	roundsPer  float64

	calls        int
	callUS       float64 // mean conn-call span, pings excluded
	firstChunkUS float64 // mean stream start → first chunk; NaN without streams
	transSelfUS  float64 // mean call span − mean handle span

	handles    int
	handleUS   float64
	handleSkew float64 // slowest ÷ fastest provider mean handle span
	busyFrac   float64 // Σ handle spans ÷ (wall × providers)
	rowsSent   int
	rowsBack   int

	// Accounting checks; all zero when the trace explains the statements.
	unnested      int      // handler spans outside a call span of their provider and kind
	strayCalls    int      // non-ping calls outside every statement span
	negativeKinds []string // kinds whose mean call span is below their mean handle span
}

// violations counts the accounting checks that failed.
func (s *traceSummary) violations() int {
	return s.unnested + s.strayCalls + len(s.negativeKinds)
}

// summarize derives the per-layer numbers from the spans of a traced run
// that lasted wall and was served by the given number of providers.
func summarize(spans []span, wall time.Duration, providers int) traceSummary {
	var stmts, calls, handles []span
	for _, s := range spans {
		if s.Layer != layerClient && proto.Kind(s.Kind) == proto.KPing {
			continue
		}
		switch s.Layer {
		case layerClient:
			stmts = append(stmts, s)
		case layerTransport:
			calls = append(calls, s)
		case layerServer:
			handles = append(handles, s)
		}
	}
	byStart := func(ss []span) {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	}
	byStart(stmts)
	byStart(calls)
	byStart(handles)

	var out traceSummary
	out.statements, out.calls, out.handles = len(stmts), len(calls), len(handles)

	// Statements: one worker, so statement spans are disjoint and a call
	// belongs to the statement its start falls in.
	children := make([][]interval, len(stmts))
	for _, c := range calls {
		i := sort.Search(len(stmts), func(i int) bool { return stmts[i].Start > c.Start }) - 1
		if i < 0 || c.Start > stmts[i].End {
			out.strayCalls++
			continue
		}
		children[i] = append(children[i], interval{c.Start, c.End})
	}
	var stmtNS, selfNS float64
	var assigned, rounds int
	for i, s := range stmts {
		self, r := selfTime(interval{s.Start, s.End}, children[i])
		stmtNS += float64(s.End - s.Start)
		selfNS += float64(self)
		assigned += len(children[i])
		rounds += r
		out.rowsBack += int(s.Rows)
	}
	out.stmtUS = mean(stmtNS, len(stmts)) / 1e3
	out.selfUS = mean(selfNS, len(stmts)) / 1e3
	out.callsPerOp = mean(float64(assigned), len(stmts))
	out.roundsPer = mean(float64(rounds), len(stmts))

	// Calls and handles, by kind and by provider.
	type agg struct {
		n  int
		ns float64
	}
	callKind, handleKind := map[uint8]*agg{}, map[uint8]*agg{}
	handleProv := map[int16]*agg{}
	bump := func(m map[uint8]*agg, k uint8, d int64) {
		a := m[k]
		if a == nil {
			a = &agg{}
			m[k] = a
		}
		a.n++
		a.ns += float64(d)
	}
	var callNS, firstNS float64
	var streams int
	callsOf := map[int16][]span{} // provider → its calls, ascending start
	for _, c := range calls {
		callNS += float64(c.End - c.Start)
		bump(callKind, c.Kind, c.End-c.Start)
		if c.First != 0 {
			firstNS += float64(c.First - c.Start)
			streams++
		}
		callsOf[c.Provider] = append(callsOf[c.Provider], c)
	}
	var handleNS float64
	for _, h := range handles {
		d := h.End - h.Start
		handleNS += float64(d)
		bump(handleKind, h.Kind, d)
		a := handleProv[h.Provider]
		if a == nil {
			a = &agg{}
			handleProv[h.Provider] = a
		}
		a.n++
		a.ns += float64(d)
		out.rowsSent += int(h.Rows)

		// Nesting: the latest call of the same provider and kind that began
		// before the handler did must contain it, unless the client
		// abandoned that call.
		cs := callsOf[h.Provider]
		j := sort.Search(len(cs), func(j int) bool { return cs[j].Start > h.Start }) - 1
		for j >= 0 && cs[j].Kind != h.Kind {
			j--
		}
		if j < 0 || (!cs[j].Canceled && h.End > cs[j].End) {
			out.unnested++
		}
	}
	out.callUS = mean(callNS, len(calls)) / 1e3
	out.firstChunkUS = mean(firstNS, streams) / 1e3
	out.handleUS = mean(handleNS, len(handles)) / 1e3
	out.transSelfUS = mean(callNS-handleNS, len(calls)) / 1e3
	for kind, c := range callKind {
		if h := handleKind[kind]; h != nil && c.ns/float64(c.n) < h.ns/float64(h.n) {
			out.negativeKinds = append(out.negativeKinds, requestName(proto.Kind(kind)))
		}
	}
	sort.Strings(out.negativeKinds)

	var slow, fast float64
	for _, a := range handleProv {
		m := a.ns / float64(a.n)
		if m > slow {
			slow = m
		}
		if fast == 0 || m < fast {
			fast = m
		}
	}
	out.handleSkew = math.NaN()
	if fast > 0 {
		out.handleSkew = slow / fast
	}
	if wall > 0 && providers > 0 {
		out.busyFrac = handleNS / (float64(wall) * float64(providers))
	}
	return out
}
