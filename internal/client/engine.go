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
// only what is per quorum — the connections, the share schemes, failover and
// health state, the hint journals and their repair loop, buffered lazy
// updates and in-flight insert reservations. It never parses SQL, consults
// no routing, and keeps no schema of its own: the Client hands every call a
// *tableMeta from the one catalog.
//
// Locking hierarchy: mu is the group's statement lock. The Client takes it
// (Client.lock) before calling into the engine — shared for plain scans and
// INSERT, exclusively for UPDATE/DELETE/DDL, commits and reads that combine
// per-provider results without row ids to mask — and the repair loop takes
// it exclusively for a provider's readmission cutover.
// downMu is a leaf lock guarding only the failover state; response-collection
// goroutines take it while read statements run in parallel. Never acquire mu
// while holding downMu.
//
// Each provider connection is shared by every concurrent statement. Over
// the multiplexed TCP transport the requests of concurrent statements are
// truly in flight together on one connection; when that shared connection
// dies, every in-flight call fails at once, each failing statement marks
// the provider down independently (last observation wins, benignly), and
// reads fail over to the surviving providers while the transport redials
// in the background of subsequent calls.
type engine struct {
	// g is this group's index in Client.groups, and in every
	// tableMeta.nextID.
	g     int
	opts  Options
	conns []transport.Conn
	// cat is the Client's catalog: lazy-update flushes resolve table names
	// in it and the repair loop proves every table of it converged.
	cat *catalog

	fieldSch *secretshare.Scheme
	aead     cipher.AEAD

	mu sync.RWMutex

	// downMu guards down and the hint journals — the state mutated on the
	// read path (by provider streams and callQuorum/callAvailable response
	// collection) and by write-quorum hinting.
	downMu sync.Mutex
	// down tracks providers considered crashed (failover state).
	down []bool
	// health is the tail-tolerance ledger (health.go): per-provider EWMA
	// latency and circuit breakers feeding read-set ranking, plus the
	// hedged-request budget. It has its own internal locking and is
	// touched on every provider call.
	health *healthState
	// hints holds one hinted-handoff journal per provider (see hints.go).
	// A provider with queued hints is "lagging": it answers calls but has
	// missed acknowledged mutations, so reads mask rows above its lag floor
	// and the repair loop owns bringing it back in sync.
	hints []*hintJournal

	// statMu guards provStat: the last storage StatsResponse each provider
	// returned to a repair-loop ping probe (nil until first probed).
	statMu   sync.Mutex
	provStat []*proto.StatsResponse

	// repairMu guards the repair loop's lifecycle state below.
	repairMu      sync.Mutex
	repairRunning bool
	repairKick    chan struct{}
	repairStop    chan struct{}
	repairDone    chan struct{}
	closed        bool
	// pending holds lazy updates: table -> rowID -> full row values. It is
	// only mutated under the exclusive statement lock; read statements
	// escalate to exclusive mode when it is non-empty (see lockForRead).
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

// newEngine opens group g over conns: its hint journals (under
// opts.HintDir, already this group's own directory) and, when a journal
// reloaded repair obligations, its repair loop.
func newEngine(g int, conns []transport.Conn, opts Options, cat *catalog, fieldSch *secretshare.Scheme, aead cipher.AEAD) (*engine, error) {
	hints, err := openHintJournals(opts.N, opts.HintDir)
	if err != nil {
		return nil, err
	}
	e := &engine{
		g:        g,
		opts:     opts,
		conns:    conns,
		cat:      cat,
		fieldSch: fieldSch,
		aead:     aead,
		health:   newHealthState(opts.N),
		down:     make([]bool, opts.N),
		hints:    hints,
		provStat: make([]*proto.StatsResponse, opts.N),
		pending:  make(map[string]map[uint64][]Value),
		inflight: make(map[string]map[uint64]uint64),
	}
	// A journal reloaded from HintDir carries repair obligations from a
	// previous process: treat those providers as down until the repair loop
	// proves otherwise and drains them.
	for i, h := range hints {
		if h.lagging {
			e.down[i] = true
			e.ensureRepairLoop()
		}
	}
	return e, nil
}

// close stops the repair loop, releases the hint journals, and closes the
// group's provider connections.
func (e *engine) close() error {
	e.stopRepairLoop()
	firstErr := e.closeHints()
	for _, conn := range e.conns {
		if err := conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// indexedResponse pairs a provider index with its response.
type indexedResponse struct {
	provider int
	msg      proto.Message
}

// noDeadline is the zero deadline: writes, repair traffic and verification
// digests run unbounded.
var noDeadline time.Time

// call sends one request to one provider under an absolute deadline
// (noDeadline = unbounded), surfacing remote errors. Every call through
// here feeds the health ledger — including repair-loop pings, so an idle
// client still tracks provider latency.
func (e *engine) call(provider int, req proto.Message, deadline time.Time) (proto.Message, error) {
	start := time.Now()
	resp, err := transport.CallWithDeadline(e.conns[provider], req, deadline)
	if err != nil {
		e.health.observe(provider, time.Since(start), err)
		return nil, err
	}
	if re, ok := resp.(*proto.ErrorResponse); ok {
		err := re.Err()
		e.health.observe(provider, time.Since(start), err)
		return nil, err
	}
	e.health.observe(provider, time.Since(start), nil)
	return resp, nil
}

// callWrite distributes one mutation under the write quorum. Providers
// already lagging are skipped up front — the new mutation must queue behind
// their earlier hints, not overtake them — and the rest are called
// concurrently. The statement commits once Options.WriteQuorum providers
// acknowledge AND no provider rejected it outright (a remote error signals
// a logical problem — duplicate row, missing table — not an outage, so it
// fails the statement regardless of quorum). On commit, the per-provider
// messages for every provider that missed the round are appended to their
// hint journals and the repair loop is kicked. On failure it returns the
// providers that did apply the mutation so the caller can compensate.
func (e *engine) callWrite(build func(provider int) proto.Message) ([]int, error) {
	lag := e.laggingSet()
	msgs := make([]proto.Message, e.opts.N)
	targets := make([]int, 0, e.opts.N)
	for i := 0; i < e.opts.N; i++ {
		msgs[i] = build(i)
		if !lag[i] {
			targets = append(targets, i)
		}
	}
	type res struct {
		provider int
		err      error
	}
	ch := make(chan res, len(targets))
	for _, i := range targets {
		go func(i int) {
			_, err := e.call(i, msgs[i], noDeadline)
			ch <- res{provider: i, err: err}
		}(i)
	}
	var acked, unreached []int
	var hard, soft []error
	for range targets {
		r := <-ch
		if r.err == nil {
			e.markProvider(r.provider, false)
			acked = append(acked, r.provider)
			continue
		}
		var remote *proto.RemoteError
		if errors.As(r.err, &remote) {
			// A rejection that means "already applied" — a DROP of a table an
			// earlier, partially failed DROP already removed here — is an ack,
			// so retrying a failed DROP completes it instead of wedging.
			if _, drop := msgs[r.provider].(*proto.DropTableRequest); drop && remote.Code == proto.CodeNoSuchTable {
				acked = append(acked, r.provider)
				continue
			}
			hard = append(hard, fmt.Errorf("provider %d: %w", r.provider, r.err))
			continue
		}
		e.markProvider(r.provider, true)
		unreached = append(unreached, r.provider)
		soft = append(soft, fmt.Errorf("provider %d: %w", r.provider, r.err))
	}
	sort.Ints(acked)
	if len(hard) > 0 {
		return acked, fmt.Errorf("client: mutation rejected: %w", errors.Join(hard...))
	}
	if len(acked) < e.opts.WriteQuorum {
		return acked, fmt.Errorf("%w: %d write acks of quorum %d (%v)",
			ErrNotEnough, len(acked), e.opts.WriteQuorum, errors.Join(soft...))
	}
	// Committed. Queue the exact share payloads for the providers that
	// missed the round; journal persistence failures are non-fatal (the
	// in-memory queue keeps this process sound).
	hinted := false
	for i := 0; i < e.opts.N; i++ {
		if lag[i] {
			_ = e.hintMutation(i, msgs[i])
			hinted = true
		}
	}
	for _, p := range unreached {
		_ = e.hintMutation(p, msgs[p])
		hinted = true
	}
	if hinted {
		e.ensureRepairLoop()
		e.kickRepair()
	}
	return acked, nil
}

// providerOrder snapshots the failover candidate order, best first:
// reachable and fully caught up, then reachable but lagging (usable for
// streaming scans below their lag floor), then previously-down ones (they
// may have recovered), with down-and-lagging last. Lagging providers appear
// at all only because masking makes them safe for id-carrying scans; paths
// that cannot mask use cleanOrder instead. Within each availability tier,
// providers are ranked by observed health (EWMA latency, circuit breaker —
// see health.go), so read sets prefer the currently-fastest K; the sort is
// stable, so providers without fresh observations keep index order.
func (e *engine) providerOrder() []int {
	e.downMu.Lock()
	order := make([]int, 0, e.opts.N)
	tier := make([]int, 0, e.opts.N)
	for i := 0; i < e.opts.N; i++ {
		t := 0
		if e.hints[i].lagging {
			t += 1
		}
		if e.down[i] {
			t += 2
		}
		order = append(order, i)
		tier = append(tier, t)
	}
	e.downMu.Unlock()
	e.rankOrder(order, tier)
	return order
}

// cleanOrder is providerOrder restricted to providers that are not lagging:
// the candidate set for statements whose per-provider results carry no row
// ids to mask (aggregates, joins, verified reads) and for DML. A lagging
// provider would silently compute over a stale share set, so it is not a
// candidate at any priority.
func (e *engine) cleanOrder() []int {
	e.downMu.Lock()
	order := make([]int, 0, e.opts.N)
	tier := make([]int, 0, e.opts.N)
	for i := 0; i < e.opts.N; i++ {
		if e.hints[i].lagging {
			continue
		}
		t := 0
		if e.down[i] {
			t = 1
		}
		order = append(order, i)
		tier = append(tier, t)
	}
	e.downMu.Unlock()
	e.rankOrder(order, tier)
	return order
}

// rankOrder stable-sorts a candidate list by (availability tier, health
// rank): tier dominates — a fast-but-lagging provider never overtakes a
// caught-up one — and health breaks ties within it. tier is indexed
// parallel to order's initial (ascending provider index) layout, so it is
// captured by position before sorting.
func (e *engine) rankOrder(order, tier []int) {
	now := time.Now()
	type key struct{ tier, rank int }
	keys := make(map[int]key, len(order))
	for j, p := range order {
		keys[p] = key{tier: tier[j], rank: e.health.rank(p, now)}
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := keys[order[a]], keys[order[b]]
		if ka.tier != kb.tier {
			return ka.tier < kb.tier
		}
		return ka.rank < kb.rank
	})
}

// markProvider records a provider's health after a call. Concurrent read
// statements race benignly here: the last observation wins.
func (e *engine) markProvider(provider int, down bool) {
	e.downMu.Lock()
	e.down[provider] = down
	e.downMu.Unlock()
}

// callQuorum gathers `need` responses under an absolute deadline, hedging
// stragglers. Candidates are the non-lagging providers, best-ranked first:
// callQuorum serves statements that combine per-provider computations
// without row ids to mask, and a provider that missed writes would silently
// contribute stale state to them. Responses come back ordered by provider
// index. The first `need` candidates are launched concurrently; then the
// collector waits on three clocks at once:
//
//   - a response arriving — failures launch the next candidate immediately
//     (plain failover, not charged to the hedge budget), successes count
//     toward the quorum;
//   - the straggler threshold elapsing with candidates still unlaunched —
//     one hedge is issued per elapse, budget permitting, and whichever of
//     the duplicated calls answers first is used (the loser's response is
//     discarded on arrival; an abandoned slow call dies with its own
//     timeout);
//   - the deadline elapsing — the statement fails with ErrDeadline rather
//     than waiting out a slow provider.
func (e *engine) callQuorum(need int, build func(provider int) proto.Message, deadline time.Time) ([]indexedResponse, error) {
	if need > e.opts.N {
		return nil, fmt.Errorf("%w: need %d of %d", ErrNotEnough, need, e.opts.N)
	}
	order := e.cleanOrder()
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
	for ; next < min(need, len(order)); next++ {
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
	for len(got) < need && inflight > 0 {
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
				e.markProvider(r.provider, true)
				// Plain failover: replace the failed candidate if the
				// quorum still needs it.
				if len(got)+inflight < need && next < len(order) {
					launch(order[next])
					next++
					inflight++
				}
				break
			}
			e.markProvider(r.provider, false)
			if len(got) < need {
				if hedgedProvs[r.provider] {
					e.health.hedgesWon.Add(1)
				}
				got = append(got, indexedResponse{provider: r.provider, msg: r.msg})
			}
		case <-hedgeCh:
			for p, at := range launchedAt {
				if stalled := time.Since(at); stalled >= threshold {
					e.health.observeStall(p, stalled)
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
			if ht != nil {
				ht.Stop()
			}
			return nil, fmt.Errorf("%w: %d of %d needed answered before deadline (%v)",
				ErrDeadline, len(got), need, errors.Join(errs...))
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

// callAvailable contacts every non-lagging provider concurrently and
// returns all successful responses (ordered by provider index), requiring
// at least minNeed. Verified reads use it: they want maximal redundancy so
// that detectably-faulty providers can be dropped while a quorum survives.
// Lagging providers are skipped — their stale share sets would fail
// cross-checks indistinguishably from malice. Hedging does not apply (all
// candidates are already called), but the deadline does: verified reads
// keep strict semantics while still failing fast when bounded.
func (e *engine) callAvailable(minNeed int, build func(provider int) proto.Message, deadline time.Time) ([]indexedResponse, error) {
	type res struct {
		provider int
		msg      proto.Message
		err      error
	}
	candidates := e.cleanOrder()
	ch := make(chan res, len(candidates))
	for _, i := range candidates {
		go func(i int) {
			msg, err := e.call(i, build(i), deadline)
			ch <- res{provider: i, msg: msg, err: err}
		}(i)
	}
	var got []indexedResponse
	var errs []error
	for range candidates {
		r := <-ch
		if r.err != nil {
			e.markProvider(r.provider, true)
			errs = append(errs, fmt.Errorf("provider %d: %w", r.provider, r.err))
			continue
		}
		e.markProvider(r.provider, false)
		got = append(got, indexedResponse{provider: r.provider, msg: r.msg})
	}
	return settleQuorum(got, minNeed, errs, deadline)
}
