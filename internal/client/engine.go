package client

import (
	"crypto/cipher"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"sssdb/internal/proto"
	"sssdb/internal/secretshare"
	"sssdb/internal/transport"
)

// engine is one provider group: an independent k-of-n share quorum, holding
// only what is per quorum — one provider record per connection (provider.go),
// the share schemes, the fleet-level hedge state, the repair loop, buffered
// lazy updates and in-flight insert reservations. It never parses SQL,
// consults no routing, and keeps no schema of its own: the Client hands every
// call a *tableMeta from the one catalog.
//
// Locking hierarchy: mu is the group's statement lock. The Client takes it
// (Client.lock, Client.scatter) before calling into the engine, in the mode
// the statement's plan names — shared for plain scans and INSERT,
// exclusively for UPDATE/DELETE/DDL, commits, flushes of buffered lazy
// updates and reads that combine per-provider results without row ids to
// mask — and the repair loop takes it exclusively for a provider's
// readmission cutover. Below it there is only
// each provider record's leaf mutex, which response-collection goroutines
// take while read statements run in parallel; never acquire mu while holding
// one. (repairMu and insMu are leaves of their own, around the repair loop's
// lifecycle and the row-id counter; no provider mutex is taken under them.)
//
// Each provider connection is shared by every concurrent statement. Over
// the multiplexed TCP transport the requests of concurrent statements are
// truly in flight together on one connection; when that shared connection
// dies, every in-flight call fails at once, each is judged failing
// independently (provider.observe: last outcome wins, benignly), and reads
// — every one a set of slots (stream.go), scans and whole responses alike —
// fail over to the surviving providers while the transport redials in the
// background of subsequent calls.
type engine struct {
	// g is this group's index in Client.groups, and in every
	// tableMeta.nextID.
	g     int
	opts  Options
	provs []*provider
	// cat is the Client's catalog: lazy-update flushes resolve table names
	// in it and the repair loop proves every table of it converged.
	cat *catalog

	fieldSch *secretshare.Scheme
	aead     cipher.AEAD

	mu sync.RWMutex

	// health is what tail tolerance keeps per fleet rather than per
	// provider: the latency histogram behind the dynamic straggler threshold
	// and the hedged-request budget and counters (health.go).
	health healthState

	// The repair loop (repair.go): a kick runs a pass now, closing
	// repairStop ends it. repairMu guards its lifecycle: repairDone is
	// non-nil while the loop runs, closed forbids starting it.
	repairKick, repairStop chan struct{}
	repairMu               sync.Mutex
	repairDone             chan struct{}
	closed                 bool
	// pending holds lazy updates: table -> rowID -> full row values, with no
	// table's map ever empty. It is only mutated under the exclusive statement
	// lock; a plain scan under the shared lock only reads it, to overlay it.
	pending map[string]map[uint64][]Value
	// insMu guards row-id allocation (tableMeta.nextID[g]) and inflight.
	// INSERT statements hold the statement lock shared so reads can
	// overtake their provider roundtrips; insMu is the narrow lock that
	// keeps id reservations and the scan watermark consistent.
	insMu sync.Mutex
	// inflight tracks reserved-but-unacknowledged insert id ranges per
	// table (base id -> row count). Scans hide rows at or above the
	// smallest in-flight base id, so an insert that has landed on some
	// providers but not others is invisible rather than "inconsistent".
	inflight map[string]map[uint64]uint64
}

// newEngine opens group g over conns: a provider record each, its hint
// journal reloaded from opts.HintDir (already this group's own directory),
// and, when a journal carries repair obligations from a previous process,
// the repair loop — such a provider counts as failing until the loop proves
// otherwise and drains it.
func newEngine(g int, conns []transport.Conn, opts Options, cat *catalog, fieldSch *secretshare.Scheme, aead cipher.AEAD) (*engine, error) {
	e := &engine{
		g:        g,
		opts:     opts,
		cat:      cat,
		fieldSch: fieldSch,
		aead:     aead,
		pending:  make(map[string]map[uint64][]Value),
		inflight: make(map[string]map[uint64]uint64),

		repairKick: make(chan struct{}, 1),
		repairStop: make(chan struct{}),
	}
	for i, conn := range conns {
		p := &provider{conn: conn, fleet: &e.health}
		if err := p.hints.open(opts.HintDir, i); err != nil {
			return nil, err
		}
		p.failing = p.hints.lagging
		e.provs = append(e.provs, p)
	}
	for _, p := range e.provs {
		if p.hints.lagging {
			e.ensureRepairLoop()
		}
	}
	return e, nil
}

// close stops the repair loop, releases the hint journals, and closes the
// group's provider connections.
func (e *engine) close() error {
	e.stopRepairLoop()
	var errs []error
	for _, p := range e.provs {
		p.mu.Lock()
		if p.hints.log != nil {
			errs = append(errs, p.hints.log.Close())
			p.hints.log = nil
		}
		p.mu.Unlock()
		errs = append(errs, p.conn.Close())
	}
	return errors.Join(errs...)
}

// noDeadline is the zero deadline: writes and repair traffic run unbounded.
var noDeadline time.Time

// call sends one request to one provider under an absolute deadline
// (noDeadline = unbounded), surfacing remote errors. Every call through
// here is judged by the provider record — including repair-loop pings, so an
// idle client still tracks provider latency.
func (e *engine) call(provider int, req proto.Message, deadline time.Time) (proto.Message, error) {
	p := e.provs[provider]
	start := time.Now()
	resp, err := callWhole(p.conn, req, deadline)
	p.observe(time.Since(start), err)
	return resp, err
}

// callWhole is one request-response exchange under an absolute deadline, a
// provider's ErrorResponse surfacing as its RemoteError.
func callWhole(conn transport.Conn, req proto.Message, deadline time.Time) (proto.Message, error) {
	resp, err := transport.CallWithDeadline(conn, req, deadline)
	if re, ok := resp.(*proto.ErrorResponse); ok && err == nil {
		return nil, re.Err()
	}
	return resp, err
}

// callWrite distributes one mutation under the write quorum. Providers
// already lagging are skipped up front — the new mutation must queue behind
// their earlier hints, not overtake them — and the rest get one round. The
// statement commits once Options.WriteQuorum providers acknowledge AND no
// provider rejected it outright (a rejection fails the statement regardless
// of quorum). On commit, every provider that missed the round is hinted its
// own message. On failure callWrite returns the providers that did apply
// the mutation so the caller can compensate.
func (e *engine) callWrite(build func(provider int) proto.Message) ([]int, error) {
	msgs := make([]proto.Message, len(e.provs))
	var targets, owed []int
	for i, p := range e.provs {
		msgs[i] = build(i)
		if p.lagging() {
			owed = append(owed, i)
		} else {
			targets = append(targets, i)
		}
	}
	t := round(targets, func(p int) error {
		_, err := e.call(p, msgs[p], noDeadline)
		// A rejection that means "already applied" — a DROP of a table an
		// earlier, partially failed DROP already removed here — is an ack,
		// so retrying a failed DROP completes it instead of wedging.
		if _, drop := msgs[p].(*proto.DropTableRequest); drop {
			if code, ok := remoteCode(err); ok && code == proto.CodeNoSuchTable {
				return nil
			}
		}
		return err
	})
	if t.rejection != nil {
		return t.acked, fmt.Errorf("client: mutation rejected: %w", t.rejection)
	}
	if len(t.acked) < e.opts.WriteQuorum {
		return t.acked, fmt.Errorf("%w: %d write acks of quorum %d (%v)",
			ErrNotEnough, len(t.acked), e.opts.WriteQuorum, t.outage)
	}
	for _, p := range append(owed, t.unreached...) {
		e.hint(p, msgs[p])
	}
	return t.acked, nil
}

// collectWhole is the one collector of whole-response reads: aggregates,
// joins and verified reads. Each of up to want slots carries one provider's
// answer to build(p) as its one message, on the best-ranked non-lagging
// providers (a lagging one would compute over a stale share set, or fail a
// verified read's cross-checks indistinguishably from malice); the rest of
// that ranking are the spares. Aggregates and joins want the K they need; a
// verified read wants all N, so faulty providers can be dropped while a
// quorum survives. A stalled slot is hedged as a scan's is; a failed one moves
// to the next spare unless the deadline has passed. The answered slots come
// back ordered by provider; short of need, collectWhole fails with
// ErrNotEnough, or ErrDeadline when it ran out of time.
func (e *engine) collectWhole(need, want int, build func(provider int) proto.Message, deadline time.Time) ([]*slot, error) {
	order := e.providerOrder(false)
	want = min(want, len(order))
	s := &slots{
		e:         e,
		ask:       func(p int, _ uint64) proto.Message { return build(p) },
		deadline:  deadline,
		watermark: math.MaxUint64, // no row id to mask
		threshold: e.hedgeThreshold(),
		spares:    order[want:],
	}
	queue := make([]*slot, want)
	for i, p := range order[:want] {
		queue[i] = s.start(p, 0, 0)
	}
	var got []*slot
	var errs []error
	short := ErrNotEnough
	for ; len(queue) > 0; queue = queue[1:] {
		ps := queue[0]
		if !ps.fill(s.watermark, s.threshold) {
			ps = s.hedge(ps)
		}
		ps.fill(s.watermark, 0)
		if ps.err == nil {
			got = append(got, ps)
			continue
		}
		errs = append(errs, fmt.Errorf("provider %d: %w", ps.p, ps.err))
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			short = ErrDeadline
		} else if len(s.spares) > 0 {
			queue = append(queue, s.start(s.spares[0], 0, 0))
			s.spares = s.spares[1:]
		}
	}
	if len(got) < need {
		return nil, fmt.Errorf("%w: %d of %d needed answered (%v)", short, len(got), need, errors.Join(errs...))
	}
	slices.SortFunc(got, func(a, b *slot) int { return a.p - b.p })
	return got, nil
}
