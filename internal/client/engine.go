package client

import (
	"crypto/cipher"
	"errors"
	"fmt"
	"sort"
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
// (Client.lock) before calling into the engine — shared for plain scans and
// INSERT, exclusively for UPDATE/DELETE/DDL, commits and reads that combine
// per-provider results without row ids to mask — and the repair loop takes
// it exclusively for a provider's readmission cutover. Below it there is only
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
	// lock; read statements escalate to exclusive mode when it is non-empty
	// (see lockForRead).
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

// indexedResponse pairs a provider index with its response.
type indexedResponse struct {
	provider int
	msg      proto.Message
}

// noDeadline is the zero deadline: writes and repair traffic run unbounded.
var noDeadline time.Time

// call sends one request to one provider under an absolute deadline
// (noDeadline = unbounded), surfacing remote errors. Every call through
// here is judged by the provider record — including repair-loop pings, so an
// idle client still tracks provider latency, and a hedge loser nobody waits
// for any more.
func (e *engine) call(provider int, req proto.Message, deadline time.Time) (proto.Message, error) {
	p := e.provs[provider]
	start := time.Now()
	resp, err := transport.CallWithDeadline(p.conn, req, deadline)
	if re, ok := resp.(*proto.ErrorResponse); ok && err == nil {
		resp, err = nil, re.Err()
	}
	p.observe(time.Since(start), err)
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

// callQuorum is the one collector of whole-response reads: it launches the
// `want` best-ranked candidates concurrently, collects up to `want`
// responses and needs at least `need` of them, returned ordered by provider
// index. Aggregates and joins combine per-provider computations and want
// exactly the K they need; a verified read wants all N — maximal redundancy,
// so that detectably-faulty providers can be dropped while a quorum
// survives — and with every candidate launched up front it has nothing left
// to hedge onto, while the deadline still makes it fail fast. Candidates are
// the non-lagging providers only: these statements carry no row ids to mask,
// and a provider that missed writes would silently contribute stale state —
// or fail a verified read's cross-checks indistinguishably from malice. The
// collector waits on three clocks at once:
//
//   - a response arriving — failures launch the next candidate immediately
//     (plain failover, not charged to the hedge budget), successes count
//     toward the quorum;
//   - the straggler threshold elapsing with candidates still unlaunched —
//     one hedge is issued per elapse, budget permitting, and whichever of
//     the duplicated calls answers first is used (the loser's response is
//     discarded on arrival; an abandoned slow call dies with its own
//     timeout, and engine.call still judges it);
//   - the deadline elapsing — a round still short of `need` fails with
//     ErrDeadline rather than waiting out a slow provider.
func (e *engine) callQuorum(need, want int, build func(provider int) proto.Message, deadline time.Time) ([]indexedResponse, error) {
	if need > e.opts.N {
		return nil, fmt.Errorf("%w: need %d of %d", ErrNotEnough, need, e.opts.N)
	}
	order := e.providerOrder(false)
	type res struct {
		provider int
		msg      proto.Message
		err      error
	}
	ch := make(chan res, len(order))
	// launchedAt lets a firing hedge timer attribute the stall: every
	// launched-but-unanswered provider older than the threshold gets a
	// right-censored latency observation (observeStall), so ranking learns
	// about a gray failure from the very first hedge. Accessed only from
	// this goroutine's loop.
	launchedAt := make(map[int]time.Time, len(order))
	launch := func(p int) {
		launchedAt[p] = time.Now()
		go func() {
			msg, err := e.call(p, build(p), deadline)
			ch <- res{provider: p, msg: msg, err: err}
		}()
	}
	next := 0
	for ; next < min(want, len(order)); next++ {
		launch(order[next])
	}
	var got []indexedResponse
	var errs []error
	inflight := next
	var hedgedProvs map[int]bool
	threshold := e.hedgeThreshold()
	var deadlineCh <-chan time.Time
	if !deadline.IsZero() {
		dt := time.NewTimer(time.Until(deadline))
		defer dt.Stop()
		deadlineCh = dt.C
	}
	for len(got) < want && inflight > 0 {
		// The hedge timer is re-armed per wait: each stall of threshold
		// duration with spare candidates available may add one hedge. With
		// hedging off or no spare left the channel stays nil and never fires.
		var ht *time.Timer
		var hedgeCh <-chan time.Time
		if threshold > 0 && next < len(order) {
			ht = time.NewTimer(threshold)
			hedgeCh = ht.C
		}
		select {
		case r := <-ch:
			inflight--
			delete(launchedAt, r.provider)
			if r.err != nil {
				errs = append(errs, fmt.Errorf("provider %d: %w", r.provider, r.err))
				// Plain failover: replace the failed candidate if the
				// quorum still needs it.
				if len(got)+inflight < want && next < len(order) {
					launch(order[next])
					next++
					inflight++
				}
				break
			}
			if hedgedProvs[r.provider] {
				e.health.hedgesWon.Add(1)
			}
			got = append(got, indexedResponse{provider: r.provider, msg: r.msg})
		case <-hedgeCh:
			for p, at := range launchedAt {
				if stalled := time.Since(at); stalled >= threshold {
					e.provs[p].observeStall(stalled)
					delete(launchedAt, p) // one stall sample per statement
				}
			}
			if e.health.allowHedge() {
				if hedgedProvs == nil {
					hedgedProvs = make(map[int]bool)
				}
				hedgedProvs[order[next]] = true
				launch(order[next])
				next++
				inflight++
			} else {
				// Budget denied: stop trying this statement (the timer
				// would otherwise re-fire every threshold).
				threshold = 0
			}
		case <-deadlineCh:
			// Whatever answered in time is the round; settleQuorum says
			// ErrDeadline when that is short of need.
			inflight = 0
		}
		if ht != nil {
			ht.Stop()
		}
	}
	return settleQuorum(got, need, errs, deadline)
}

// settleQuorum closes a gathering round: the responses ordered by provider
// index, or — short of `need` — ErrNotEnough naming the failures. The
// per-call transport deadlines and a collector's deadline timer race
// benignly; a round that falls short past its deadline ran out of time, not
// out of providers, and says ErrDeadline.
func settleQuorum(got []indexedResponse, need int, errs []error, deadline time.Time) ([]indexedResponse, error) {
	if len(got) < need {
		base := ErrNotEnough
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			base = ErrDeadline
		}
		return nil, fmt.Errorf("%w: %d of %d needed answered (%v)", base, len(got), need, errors.Join(errs...))
	}
	sort.Slice(got, func(i, j int) bool { return got[i].provider < got[j].provider })
	return got, nil
}
