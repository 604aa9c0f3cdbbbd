package client

// End-to-end streaming scans (the paper's Sec. V-A query flow, made
// incremental): each of the K quorum providers executes the scan on a
// store cursor and ships bounded row-chunk frames; the client aligns the K
// chunk streams by row id, feeds aligned spans through the worker-pool
// share reconstruction as they arrive, and hands reconstructed rows to the
// consumer batch by batch. Provider I/O overlaps reconstruction CPU, no
// layer ever materializes the full result set, and a satisfied LIMIT
// cancels the outstanding provider streams instead of draining them.
//
// This is the one unverified scan pipeline: Exec drains it (collectStream),
// QueryRows iterates it, and both get provider failover from it
// (rowStream.failover). A verified read takes scanVerified: providers stream
// it from their cursors, the proof on the last chunk, and the transport hands
// each slot the reassembled answer, since the proof checks only the whole.

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"sssdb/internal/proto"
	"sssdb/internal/sql"
	"sssdb/internal/transport"
)

// streamBatchRows is the aligned-row target per reconstruction batch: big
// enough to amortize Lagrange-weight setup and engage the worker pool,
// small enough that a batch is a rounding error against a 50k-row result.
const streamBatchRows = 1024

// errStreamDone is the sentinel a consumer-side yield returns to tell the
// transport the caller wants no more chunks (LIMIT satisfied, Rows closed).
// The transport abandons the request and sends a best-effort cancel frame.
var errStreamDone = errors.New("client: stream consumer done")

// alignedBatch is one reconstructed span of the result: ids[i] is the row
// id of values[i], which is indexed like meta.Cols and holds the columns the
// scan fetched (see scanResult.values).
type alignedBatch struct {
	ids    []uint64
	values [][]Value
}

// slots is what the slots of one read share. A slot carries one provider's
// answer — a scan's stream of row chunks, or the one whole response of an
// aggregate, a join or a verified read (collectWhole) — and both kinds are
// started, hedged and raced by the same methods below.
type slots struct {
	e   *engine
	ask func(p int, limit uint64) proto.Message // provider p's request
	// deadline bounds every call (noDeadline = none); done, when non-nil,
	// cancels every slot at once.
	deadline time.Time
	done     chan struct{}
	// watermark drops rows at or above it from every chunk.
	watermark uint64
	// threshold is the straggler threshold (0 = no hedging); it flips to 0
	// once the hedge budget denies, so a slow read does not keep re-arming
	// stall timers it can never act on.
	threshold time.Duration
	// spares are the one spare rule of every read: the ranked non-lagging
	// providers outside the read set. A lagging one would compute over a
	// stale share set, and its lag floor may sit below a scan's watermark.
	spares []int
}

// rowStream is a running streaming scan: K provider goroutines feed chunk
// channels, one aligner goroutine zips them by row id, reconstructs, and
// emits alignedBatches on out. err and failed are valid once out is closed.
type rowStream struct {
	slots
	out    chan alignedBatch
	stop   sync.Once
	err    error
	closed bool
	// failed is the slot whose failure err reports (nil when err is
	// providers disagreeing, or a local decode error): a re-opened scan
	// routes around that provider.
	failed *slot

	// What was asked, so a failed scan can re-open (see failover); avoid
	// lists the providers whose streams failed earlier opens of this scan.
	meta  *tableMeta
	preds []compiledPred
	o     scanOpts
	avoid []int
}

// interrupt signals the provider goroutines to abandon their calls (the
// transport then best-effort cancels the server-side cursors). Both the
// consumer (Close) and the aligner (on any exit) call it: before the
// aligner signaled too, an aligner that failed mid-scan left the surviving
// providers' goroutines parked on full chunk channels — each pinning a
// server-side cursor — until the consumer happened to Close, and a
// consumer that abandoned the cursor after an error leaked them for good.
func (rs *rowStream) interrupt() {
	rs.stop.Do(func() { close(rs.done) })
}

// Close cancels the stream: provider goroutines abandon their calls (which
// cancels the server-side cursors) and the aligner unblocks. Safe to call
// more than once; the consumer must drain or Close every rowStream.
func (rs *rowStream) Close() {
	if rs.closed {
		return
	}
	rs.closed = true
	rs.interrupt()
	for range rs.out { // release the aligner if it is mid-send
	}
}

// slot is a reader's view of one provider's answer.
type slot struct {
	p  int
	ch chan proto.Message
	// end is how the call ended, set by the slot's goroutine before it
	// closes ch, so it is read only once ch reads as closed.
	end error
	// msg is the newest message received: a whole response's only one.
	msg proto.Message
	// stop cancels this slot alone (a hedge race loser) without touching
	// its siblings; slots.done still cancels all of them at once.
	stop     chan struct{}
	stopOnce sync.Once
	// limit is the LIMIT pushed to this provider (0 = none) and received
	// the rows it has sent, masked ones included; see spentLimitOnMasked.
	limit    uint64
	received uint64
	cols     []string
	rows     []proto.Row
	off      int
	eof      bool
	err      error
	// skip drops this many post-watermark rows before any are delivered: a
	// hedge rival fast-forwards to the slot's current position. accepted
	// counts post-watermark, post-skip rows delivered so far — i.e. the
	// slot position a future rival of THIS stream must skip to. OPP share
	// ordering makes this sound: every provider returns the same logical
	// rows in the same id order for the same logical filter, so "row
	// number accepted so far" addresses the identical row on any provider.
	skip     int
	accepted int
}

// cancel stops this slot's provider goroutine (best-effort cancel frame
// on the wire, cursor released server-side). Idempotent.
func (ps *slot) cancel() {
	ps.stopOnce.Do(func() { close(ps.stop) })
}

// ingest folds one receive (msg, ok := <-ps.ch) into the slot state: it
// keeps msg, and of a row chunk the watermark rows drop, skip rows
// fast-forward and the rest land in ps.rows. Only legal when every
// previously delivered row is consumed (ps.off >= len(ps.rows)).
func (ps *slot) ingest(msg proto.Message, ok bool, watermark uint64) {
	if !ok {
		ps.err = ps.end
		ps.eof = true
		return
	}
	ps.msg = msg
	chunk, isRows := msg.(*proto.RowsResponse)
	if !isRows {
		return
	}
	if ps.cols == nil && len(chunk.Columns) > 0 {
		ps.cols = chunk.Columns
	}
	ps.received += uint64(len(chunk.Rows))
	rows := chunk.Rows[:0]
	for _, row := range chunk.Rows {
		if row.ID >= watermark {
			continue
		}
		if ps.skip > 0 {
			ps.skip--
			continue
		}
		rows = append(rows, row)
	}
	ps.rows = rows
	ps.off = 0
	ps.accepted += len(rows)
}

// spentLimitOnMasked reports that the stream ended because the provider
// filled its pushed LIMIT, yet fewer than LIMIT rows survived: the provider
// applies the limit before the client masks rows at or above the watermark
// (a concurrent INSERT landing inside the range, a lag-floor cap), so every
// masked row cost the result a slot the provider could have filled. The
// aligner then continues the slot on an unlimited stream.
func (ps *slot) spentLimitOnMasked() bool {
	return ps.eof && ps.err == nil && ps.limit > 0 &&
		ps.received >= ps.limit && uint64(ps.accepted) < ps.limit
}

// ready reports that the reader can make progress on this slot without
// blocking: unconsumed rows are available or the answer has ended.
func (ps *slot) ready() bool {
	return ps.eof || ps.off < len(ps.rows)
}

// fill blocks until ps has at least one unconsumed row or has reached the
// end of its answer, dropping rows at or above the insert watermark as they
// arrive. A positive d bounds the wait: fill returns false if the slot
// produced nothing for d (the straggler threshold — the reader then
// considers hedging), true once the slot is ready.
func (ps *slot) fill(watermark uint64, d time.Duration) bool {
	var stall <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		stall = t.C
	}
	for !ps.ready() {
		select {
		case msg, ok := <-ps.ch:
			ps.ingest(msg, ok, watermark)
		case <-stall:
			return false
		}
	}
	return true
}

// start launches one slot on provider p with `limit` pushed down, skipping
// the first `skip` post-watermark rows (0 for the initial read set; the slot
// position for a hedge rival or a continuation). An unverified scan yields
// its chunks; anything else is one message (a verified scan's chunks arrive
// reassembled: its proof covers the whole answer).
func (s *slots) start(p int, skip int, limit uint64) *slot {
	ps := &slot{
		p:        p,
		ch:       make(chan proto.Message, 1),
		stop:     make(chan struct{}),
		limit:    limit,
		skip:     skip,
		accepted: skip,
	}
	req := s.ask(p, limit)
	pr := s.e.provs[p]
	go func() {
		// The latency the provider is judged on is the time to its first
		// message (or to the end of a stream that sent none): whole-stream
		// duration would scale with result size, not provider health.
		started := time.Now()
		var first time.Duration
		judged := false
		deliver := func(msg proto.Message) error {
			if !judged {
				first, judged = time.Since(started), true
				pr.observe(first, nil)
			}
			select {
			case ps.ch <- msg:
				return nil
			case <-ps.stop:
				return errStreamDone
			case <-s.done:
				return errStreamDone
			}
		}
		var err error
		if scan, ok := req.(*proto.ScanRequest); ok && !scan.WithProof {
			err = transport.CallStreamWithDeadline(pr.conn, req, s.deadline, func(chunk *proto.RowsResponse) error {
				return deliver(chunk)
			})
		} else {
			var msg proto.Message
			if msg, err = callWhole(pr.conn, req, s.deadline); err == nil {
				err = deliver(msg)
			}
		}
		// A slot this client canceled has no outcome, and a clean end after
		// a message was judged at the first one. Every other ending is judged
		// here — a death after the first chunk like one before it.
		if !errors.Is(err, errStreamDone) && (err != nil || !judged) {
			if !judged {
				first = time.Since(started)
			}
			pr.observe(first, err)
		}
		ps.end = err
		close(ps.ch)
	}()
	return ps
}

// hedge is what a slot that stalled past the straggler threshold gets: if a
// spare and hedge budget remain, a rival on the spare, raced against it; it
// returns the slot's owner afterwards.
func (s *slots) hedge(old *slot) *slot {
	// The stalled slot has provably produced nothing for a full threshold:
	// feed that as a right-censored latency sample so ranking demotes a
	// gray-failing provider without waiting for the call to finish or die
	// (see provider.observeStall).
	s.e.provs[old.p].observeStall(s.threshold)
	if len(s.spares) == 0 {
		return old
	}
	if !s.e.health.allowHedge() {
		s.threshold = 0
		return old
	}
	p := s.spares[0]
	s.spares = s.spares[1:]
	return s.race(old, s.start(p, old.accepted, old.limit))
}

// race waits for either the stalled slot or its rival to become usable and
// returns the slot's new owner, canceling the other. A death of either side
// hands the slot to the survivor — hedging doubles as failover. Both sit at
// the same slot position (the rival skipped to it), so whichever produces
// rows first produces the SAME rows; a clean end is equally adoptable from
// either.
func (s *slots) race(old, rival *slot) *slot {
	oldCh, rivalCh := old.ch, rival.ch
	for {
		if old != nil && old.ready() {
			if old.eof && old.err != nil && rival != nil {
				old, oldCh = nil, nil
			} else {
				if rival != nil {
					rival.cancel()
				}
				return old
			}
		}
		if rival != nil && rival.ready() {
			if rival.eof && rival.err != nil {
				if old == nil {
					return rival // both dead; surface the rival's error
				}
				rival, rivalCh = nil, nil
				continue
			}
			if old != nil {
				old.cancel()
			}
			s.e.health.hedgesWon.Add(1)
			return rival
		}
		select {
		case msg, ok := <-oldCh:
			old.ingest(msg, ok, s.watermark)
		case msg, ok := <-rivalCh:
			rival.ingest(msg, ok, s.watermark)
		}
	}
}

// openRowStream starts a streaming scan over the best-ranked read quorum
// of providers not in avoid (at least that many must remain). Any error
// after this point surfaces through rs.err when rs.out closes. o.epoch caps
// the insert watermark (transactional reads), o.deadline bounds every
// provider stream, and each provider ships o.fetch and is sent o.push.
func (e *engine) openRowStream(meta *tableMeta, preds []compiledPred, o scanOpts, avoid []int) (*rowStream, error) {
	filters, err := e.providerFilters(meta, preds)
	if err != nil {
		return nil, err
	}
	// INSERTs run under the shared statement lock, so a batch may be landing
	// provider by provider while this scan is in flight. Snapshot the stable
	// watermark before sending: any id at or above it could be half-landed
	// and is dropped from every stream, so the K row sets always agree on
	// what all of them have fully durable.
	watermark := e.stableWatermark(meta)
	if o.epoch < watermark {
		watermark = o.epoch
	}
	quorum := e.opts.readQuorum(false)
	order := e.providerOrder(true)
	order = slices.DeleteFunc(order, func(p int) bool { return slices.Contains(avoid, p) })
	providers := append([]int(nil), order[:quorum]...)
	sort.Ints(providers)
	// If failover put a lagging provider (one with queued hints) in the
	// chosen K, cap the watermark by its lag floor: its rows below the floor
	// are exactly its peers', and ids at or above it may have missed
	// mutations there, so they are hidden from every stream.
	for _, p := range providers {
		watermark = min(watermark, e.provs[p].lagFloor(meta.Name))
	}

	rs := &rowStream{
		slots: slots{
			e: e,
			ask: func(p int, limit uint64) proto.Message {
				return &proto.ScanRequest{
					Table:      meta.Name,
					Filter:     filters[p],
					Projection: o.fetch.names,
					IDsOnly:    o.fetch.idsOnly(),
					Limit:      limit,
				}
			},
			deadline:  o.deadline,
			done:      make(chan struct{}),
			watermark: watermark,
			threshold: e.hedgeThreshold(),
			spares:    slices.DeleteFunc(order[quorum:], func(p int) bool { return e.provs[p].lagging() }),
		},
		out:   make(chan alignedBatch, 1),
		meta:  meta,
		preds: preds,
		o:     o,
		avoid: avoid,
	}
	streams := make([]*slot, len(providers))
	for i, p := range providers {
		streams[i] = rs.start(p, 0, o.push)
	}
	go rs.align(streams)
	return rs, nil
}

// failover re-opens a scan whose stream failed before any of its rows
// reached the statement's caller; it returns the error to surface when
// another attempt cannot help. The provider whose stream failed is avoided
// for the rest of the statement, so the re-opened scan reads the next-best
// K of the others — lagging providers admissible under the lag-floor cap
// computed at open. Every attempt loses a provider, so N−K+1 of them
// exhaust the fleet. An elapsed deadline is never retried (the retry would
// only time out again, later), nor is disagreement among the providers.
func (rs *rowStream) failover() (*rowStream, error) {
	rs.Close()
	err := mapDeadlineErr(rs.err)
	if rs.failed == nil || errors.Is(err, ErrDeadline) {
		return nil, err
	}
	avoid := append(rs.avoid[:len(rs.avoid):len(rs.avoid)], rs.failed.p)
	if n, k := rs.e.opts.N, rs.e.opts.readQuorum(false); n-len(avoid) < k {
		return nil, fmt.Errorf("%w: %d of %d failed this scan, %d needed, last: %w", ErrNotEnough, len(avoid), n, k, err)
	}
	return rs.e.openRowStream(rs.meta, rs.preds, rs.o, avoid)
}

// align is the zipper: it pops rows off the K provider streams in
// lockstep and flushes the aligned spans through reconstruction whenever
// streamBatchRows accumulate; reconstructRows demands row-id agreement
// position by position (unverified reads want strict agreement among the K
// providers) before it combines a span.
//
// A slot whose stream stalls past the straggler threshold is hedged: the
// pending aligned batch is flushed first (a batch must never mix an old
// slot owner's rows with its replacement's — reconstruction labels rows by
// the CURRENT slot provider), then a rival stream starts on a spare
// provider, fast-forwarded to the slot position, and whichever of the two
// becomes usable first owns the slot from then on.
func (rs *rowStream) align(streams []*slot) {
	e, meta, preds, limit, watermark := rs.e, rs.meta, rs.preds, rs.o.limit, rs.watermark
	defer close(rs.out)
	// Whatever ends this aligner — completion, a satisfied LIMIT, a failed
	// or inconsistent provider — the surviving provider goroutines must be
	// released NOW, not at consumer Close: each one parked on a full chunk
	// channel holds a server-side cursor open, and a consumer that abandons
	// its Rows after seeing the error would leak those cursors. Runs before
	// the close(rs.out) above (LIFO), so by the time the consumer observes
	// the closed stream the cancels are already on the wire.
	defer rs.interrupt()

	residual := residualPreds(preds)
	remaining := limit

	batch := make([][]proto.Row, len(streams))
	batched := 0
	flush := func() (stop bool) {
		if batched == 0 {
			return false
		}
		// The provider list is rebuilt from the CURRENT slot owners on
		// every flush: hedging may have swapped a slot since the last one,
		// and the batch rows are guaranteed to belong to the current owners
		// (a swap always flushes first).
		providers := make([]int, len(streams))
		resps := make([]*proto.RowsResponse, len(streams))
		for i, ps := range streams {
			providers[i] = ps.p
			resps[i] = &proto.RowsResponse{Columns: ps.cols, Rows: batch[i]}
		}
		res, err := e.reconstructRows(meta, &rs.o.fetch, providers, resps, false)
		if err != nil {
			rs.err = err
			return true
		}
		if err := e.filterResidual(meta, res, residual); err != nil {
			rs.err = err
			return true
		}
		for i := range batch {
			batch[i] = nil
		}
		batched = 0
		if limit > 0 && uint64(len(res.ids)) > remaining {
			res.ids = res.ids[:remaining]
			res.values = res.values[:remaining]
		}
		if len(res.ids) == 0 {
			return false
		}
		select {
		case rs.out <- alignedBatch{ids: res.ids, values: res.values}:
		case <-rs.done:
			return true
		}
		if limit > 0 {
			if remaining -= uint64(len(res.ids)); remaining == 0 {
				return true // LIMIT satisfied: cancel the provider tails
			}
		}
		return false
	}

	for {
		avail := -1
		allEOF := true
		for si := range streams {
			ps := streams[si]
			if !ps.fill(watermark, rs.threshold) {
				// Stalled past the straggler threshold. Flush the aligned
				// batch under the current slot owners, then race a rival
				// for the slot.
				if flush() {
					return
				}
				ps = rs.hedge(ps)
				streams[si] = ps
			}
			ps.fill(watermark, 0)
			if ps.spentLimitOnMasked() {
				// Same provider, same slot position, so the pending batch
				// stays valid; the satisfied LIMIT cancels the tail.
				ps = rs.start(ps.p, ps.accepted, 0)
				streams[si] = ps
				ps.fill(watermark, 0)
			}
			if ps.err != nil {
				rs.failed = ps
				rs.err = fmt.Errorf("provider %d: %w", ps.p, ps.err)
				return
			}
			n := len(ps.rows) - ps.off
			if !ps.eof || n > 0 {
				allEOF = false
			}
			if avail < 0 || n < avail {
				avail = n
			}
		}
		if allEOF {
			flush()
			return
		}
		if avail == 0 {
			// Some provider is exhausted while another still has rows: the
			// responses cannot agree.
			var short, long = -1, -1
			for _, ps := range streams {
				if ps.eof && ps.off >= len(ps.rows) {
					short = ps.p
				} else {
					long = ps.p
				}
			}
			rs.err = fmt.Errorf("%w: provider %d ended its stream before provider %d", ErrInconsistent, short, long)
			return
		}
		if rs.o.push > 0 && uint64(batched+avail) > remaining {
			// No residual filter, so every aligned row is a result row:
			// stop at LIMIT. Streams need not agree past it — one that
			// continued unlimited has rows its limited peers never sent.
			avail = int(remaining) - batched
		}
		for si, ps := range streams {
			batch[si] = append(batch[si], ps.rows[ps.off:ps.off+avail]...)
			ps.off += avail
		}
		batched += avail
		if batched >= streamBatchRows || (rs.o.push > 0 && uint64(batched) == remaining) {
			if flush() {
				return
			}
		}
	}
}

// collectStream drains a streaming scan into a scanResult. Nothing reaches
// the statement's caller until the drain completes, so a provider stream
// failing at any point — not only before the first batch — restarts the
// drain on a re-opened scan.
func (e *engine) collectStream(meta *tableMeta, preds []compiledPred, o scanOpts) (*scanResult, error) {
	rs, err := e.openRowStream(meta, preds, o, nil)
	if err != nil {
		return nil, err
	}
	for {
		res := &scanResult{}
		for b := range rs.out {
			res.ids = append(res.ids, b.ids...)
			res.values = append(res.values, b.values...)
		}
		if rs.err == nil {
			return res, nil
		}
		if rs, err = rs.failover(); err != nil {
			return nil, err
		}
	}
}

// mapDeadlineErr folds an elapsed read deadline, a transport timeout, into
// ErrDeadline, so callers can tell "out of time" apart from "needs
// failover".
func mapDeadlineErr(err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("%w: %v", ErrDeadline, err)
	}
	return err
}

// --- Public cursor API ---

// Rows is an incremental SELECT result. Next advances to the next row;
// Row returns it; Err reports why iteration stopped early; Close releases
// the statement locks and cancels any outstanding provider streams. A Rows
// must always be Closed (iterating to completion does not release it).
//
// Streaming-eligible queries (plain unverified SELECT, no ORDER BY, no
// buffered lazy updates) deliver rows as provider chunks arrive and hold
// the routed groups' shared statement locks until Close. Everything else —
// aggregates, joins, GROUP BY, ORDER BY, verified reads — executes eagerly
// exactly as Exec would and iterates the materialized result.
type Rows struct {
	cols []string
	idx  []int

	// streams holds one running scan per routed group, all opened up front;
	// rows drain from them in group order (cross-group order is unspecified,
	// like scan order), streams[0] being the one draining now. groups[i] is
	// the group of streams[i]. A materialized result has none and iterates
	// batch alone.
	streams []*rowStream
	groups  []int
	client  *Client
	unlock  func()

	batch alignedBatch
	pos   int
	cur   []Value
	err   error
	// delivered reports that a row of the draining stream reached the
	// caller, which rules out restarting that group's scan.
	delivered bool
	finished  bool
	// limit counts the rows still to deliver under a LIMIT (0 = unlimited):
	// every group received the LIMIT as a superset bound, the global one is
	// enforced here, and satisfying it cancels the undrained group streams.
	limit uint64
}

// QueryRows parses and executes one SELECT, returning an iterator over its
// rows. Exec remains the one-shot form; QueryRows is the bounded-memory
// form — equivalent rows in equivalent order, without materializing the
// result (see type Rows for which query shapes stream).
func (c *Client) QueryRows(query string) (*Rows, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	s, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("%w: QueryRows wants a SELECT, got %T", ErrUnsupported, stmt)
	}
	if s.Join != nil {
		res, err := c.execJoin(s)
		if err != nil {
			return nil, err
		}
		return materializedRows(res), nil
	}
	p, err := c.planSelect(s, nil)
	if err != nil {
		return nil, err
	}
	// Only a plain unverified scan in scan order streams, and only while no
	// lazy update is buffered for the table (the overlay needs the whole
	// result); everything else runs as Exec would.
	materialize := p.exclusive() || p.oci >= 0
	var unlock func()
	if !materialize {
		if unlock, err = c.lock(p.targets, false, p.meta); err != nil {
			return nil, err
		}
		for _, g := range p.targets {
			materialize = materialize || len(c.groups[g].pending[p.meta.Name]) > 0
		}
		if materialize {
			unlock()
		}
	}
	if materialize {
		res, err := c.runSelect(p)
		if err != nil {
			return nil, err
		}
		return materializedRows(res), nil
	}
	r := &Rows{cols: p.cols, idx: p.idx, client: c, unlock: unlock, limit: p.limit}
	if emptyWhere(p.preds) {
		r.finish()
		return r, nil
	}
	for _, g := range p.targets {
		e := c.groups[g]
		o, _ := e.planOpts(p)
		rs, err := e.openRowStream(p.meta, p.preds, o, nil)
		if err != nil {
			r.finish()
			return nil, c.tagGroup(g, err)
		}
		r.streams = append(r.streams, rs)
		r.groups = append(r.groups, g)
	}
	return r, nil
}

// materializedRows wraps an eagerly-computed Result in the iterator shape.
func materializedRows(res *Result) *Rows {
	idx := make([]int, len(res.Columns))
	for i := range idx {
		idx[i] = i
	}
	return &Rows{
		cols:  res.Columns,
		idx:   idx,
		batch: alignedBatch{values: res.Rows},
	}
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row, reporting whether one is available. After
// Next returns false, Err distinguishes exhaustion from failure.
func (r *Rows) Next() bool {
	if r.finished {
		return false
	}
	for r.pos >= len(r.batch.values) {
		if len(r.streams) == 0 {
			r.finish()
			return false
		}
		rs := r.streams[0]
		b, ok := <-rs.out
		if !ok {
			switch {
			case rs.err == nil:
				// This group is drained; move on to the next one's stream.
				r.streams, r.groups, r.delivered = r.streams[1:], r.groups[1:], false
				continue
			case !r.delivered:
				// None of this group's rows reached the caller yet, so its
				// scan may start over on other providers.
				if r.streams[0], r.err = rs.failover(); r.err == nil {
					continue
				}
			default:
				r.err = mapDeadlineErr(rs.err)
			}
			r.err = r.client.tagGroup(r.groups[0], r.err)
			r.finish()
			return false
		}
		r.batch = b
		r.pos = 0
	}
	vals := r.batch.values[r.pos]
	r.pos++
	row := make([]Value, len(r.idx))
	for i, ci := range r.idx {
		row[i] = vals[ci]
	}
	r.cur = row
	r.delivered = true
	if r.limit > 0 {
		if r.limit--; r.limit == 0 {
			r.finish() // cancels the remaining group streams
		}
	}
	return true
}

// Row returns the row Next advanced to. The slice is owned by the caller.
func (r *Rows) Row() []Value { return r.cur }

// Err returns the error that terminated iteration early, if any.
func (r *Rows) Err() error { return r.err }

// finish cancels the provider streams and releases the statement locks
// without marking the iterator closed for Err.
func (r *Rows) finish() {
	r.finished = true
	for _, rs := range r.streams {
		if rs != nil {
			rs.Close()
		}
	}
	r.streams = nil
	if r.unlock != nil {
		r.unlock()
		r.unlock = nil
	}
}

// Close ends iteration, cancels outstanding provider streams, and releases
// the statement locks. Idempotent; always returns nil.
func (r *Rows) Close() error {
	r.finish()
	return nil
}
