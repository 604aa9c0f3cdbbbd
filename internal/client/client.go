// Package client implements the data source D of the paper: the trusted
// front end that outsources tables as shares to n Database Service
// Providers, rewrites queries into share space (regenerating polynomials as
// part of front-end query processing rather than storing them), gathers
// partial results from any k providers, reconstructs values, and — in
// verified mode — cross-checks redundant shares and Merkle completeness
// proofs to catch corrupt or dishonest providers.
package client

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"sssdb/internal/opp"
	"sssdb/internal/proto"
	"sssdb/internal/secretshare"
	"sssdb/internal/transport"
	"sssdb/internal/wal"
)

// Client-level errors.
var (
	ErrBadOptions    = errors.New("client: invalid options")
	ErrNoSuchTable   = errors.New("client: no such table")
	ErrTableExists   = errors.New("client: table already exists")
	ErrNoSuchColumn  = errors.New("client: no such column")
	ErrTypeMismatch  = errors.New("client: value does not fit column type")
	ErrBadSchema     = errors.New("client: invalid schema")
	ErrUnsupported   = errors.New("client: unsupported query shape")
	ErrNotEnough     = errors.New("client: not enough live providers")
	ErrInconsistent  = errors.New("client: providers returned inconsistent results")
	ErrVerification  = errors.New("client: verification failed")
	ErrValueOverflow = errors.New("client: aggregate exceeds safe bounds")
	ErrDeadline      = errors.New("client: read deadline exceeded")
)

// Options configures a data source.
type Options struct {
	// K is the reconstruction threshold for random field shares: any K
	// providers answer a query; K-1 colluding providers learn nothing from
	// field shares.
	K int
	// OPPDegree is the order-preserving polynomial degree (the paper's
	// exposition uses 3). OPPDegree+1 shares interpolate an OPP value;
	// single-share binary-search reconstruction is used on the fast path.
	OPPDegree int
	// MasterKey is the data source's secret X-material: evaluation points
	// and coefficient hashes derive from it. It must never reach providers.
	MasterKey []byte
	// IntBits bounds INT and DECIMAL domains (default 40).
	IntBits uint
	// Alphabet is the VARCHAR alphabet (default numenc.PrintableAlphabet).
	Alphabet string
	// Rand supplies randomness for field-share polynomials and blob
	// nonces (default crypto/rand.Reader).
	Rand io.Reader
	// Verified requests verification on every read: queries go to all live
	// providers, field cells are robust-reconstructed, and row sets are
	// cross-checked.
	Verified bool
	// LazyUpdates buffers UPDATE statements client-side until Flush (the
	// paper's Sec. V-C lazy update direction). Reads overlay pending
	// updates so the client always sees its own writes.
	LazyUpdates bool
	// ParallelWorkers bounds the goroutines one statement may use for
	// share reconstruction (scans) and share encoding (inserts/updates).
	// 0 means GOMAXPROCS; 1 forces the serial path.
	ParallelWorkers int
	// WriteQuorum is the number of providers that must acknowledge a
	// mutation for it to commit (the paper's availability argument applied
	// to writes: k-of-n sharing tolerates n-k failures, so writes need not
	// demand all n). Shares destined for providers that miss the quorum
	// round are queued in a per-provider hint journal and replayed by the
	// background repair loop once the provider answers pings again. 0 means
	// N (every mutation reaches every provider synchronously — the strict
	// pre-quorum behavior); the floor is K, below which committed writes
	// could become unreconstructable.
	WriteQuorum int
	// HintDir, when non-empty, persists hint journals (WAL framing) under
	// this directory so a client restart resumes its repair obligations.
	// Empty keeps hints in memory only.
	HintDir string
	// RepairInterval is the base cadence of the background repair loop's
	// health probes (default 200ms); per-provider exponential backoff
	// stretches it while a provider stays unreachable.
	RepairInterval time.Duration
	// Shards is the number of provider groups the row space is
	// hash-partitioned across. 0 or 1 keeps the single-group engine (every
	// provider holds a share of every row). With Shards = G > 1 the open
	// helpers split the provider list into G equal groups — each its own
	// K-of-N quorum with independent hint journals and repair — and build a
	// shard router via NewSharded. New itself rejects Shards > 1.
	Shards int
	// ReadDeadline, when positive, bounds the end-to-end latency of each
	// read statement (Query/QueryRows and their sharded scatter-gather):
	// the absolute deadline is fixed when the statement starts and
	// propagates through provider calls, streaming scans (providers abandon
	// cursor batches for it), and transport dial/retry backoffs. A
	// statement that cannot complete in time fails with ErrDeadline instead
	// of hanging on slow providers. Zero means unbounded. Write statements
	// and repair-loop scans are never deadline-bounded.
	ReadDeadline time.Duration
	// HedgeDelay tunes hedged reads. A read-set member that has not
	// answered within the straggler threshold gets hedged: the same
	// request is issued to a spare provider and whichever answers first
	// wins. 0 (default) derives the threshold dynamically from recent call
	// latencies (a multiple of the observed p99, once enough calls have
	// been seen); a positive value fixes the threshold; a negative value
	// disables hedging. Hedges are rate-limited to a small fraction of
	// total calls so a uniformly slow fleet is not amplified.
	HedgeDelay time.Duration
	// ShardKeys optionally names a shard-key column per table
	// (table name -> column name), consulted at CREATE TABLE time. A table
	// whose name appears here is hash-partitioned on that column's encoded
	// value instead of on the insert sequence, which lets the router send
	// point predicates on the column to a single group. Only meaningful on
	// a sharded client.
	ShardKeys map[string]string

	// N is derived from the number of connections passed to New.
	N int
}

// Result is the outcome of one statement.
type Result struct {
	// Columns and Rows carry SELECT output.
	Columns []string
	Rows    [][]Value
	// Affected counts rows touched by DML.
	Affected uint64
	// Verified reports that verification ran and passed for this result.
	Verified bool
}

// Client is a data source connected to n providers.
//
// Locking hierarchy: mu is the statement lock — read statements (SELECT,
// EXPLAIN, catalog export) hold it shared and run concurrently, while
// DDL/DML and lazy-update flushes hold it exclusively. downMu is a leaf
// lock guarding only the failover state; response-collection goroutines
// take it while read statements run in parallel. Never acquire mu while
// holding downMu.
//
// Each provider connection is shared by every concurrent statement. Over
// the multiplexed TCP transport the requests of concurrent statements are
// truly in flight together on one connection; when that shared connection
// dies, every in-flight call fails at once, each failing statement marks
// the provider down independently (last observation wins, benignly), and
// reads fail over to the surviving providers while the transport redials
// in the background of subsequent calls.
type Client struct {
	mu    sync.RWMutex
	opts  Options
	conns []transport.Conn

	fieldSch *secretshare.Scheme
	domains  map[string]*opp.Scheme
	tables   map[string]*tableMeta
	aead     cipher.AEAD

	// downMu guards down and the hint journals — the client state mutated
	// on the read path (by provider streams and callQuorum/callAvailable
	// response collection) and by write-quorum hinting.
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

	// txLog is the client's transaction log (txlog.wal under HintDir):
	// per-provider op batches and the commit decision of every
	// multi-statement transaction, appended ahead of the 2PC rounds so a
	// coordinator crash is recoverable (see tx.go). nil without HintDir.
	// Only Commit (under the exclusive statement lock) and Close touch it.
	txLog *wal.Log
	// txHook, when non-nil, runs between 2PC stages ("intent", "prepared",
	// "committed"); crash-injection tests return an error from it to
	// simulate the coordinator dying at that point.
	txHook func(stage string) error

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
	// escalate to exclusive mode when it is non-empty (see Exec).
	pending map[string]map[uint64][]Value
	// insMu guards row-id allocation (tableMeta.NextID) and inflight.
	// INSERT statements hold the statement lock shared so reads can
	// overtake their provider roundtrips; insMu is the narrow lock that
	// keeps id reservations and the scan watermark consistent.
	insMu sync.Mutex
	// inflight tracks reserved-but-unacknowledged insert id ranges per
	// table (base id -> row count). Scans hide rows at or above the
	// smallest in-flight base id, so an insert that has landed on some
	// providers but not others is invisible rather than "inconsistent".
	inflight map[string]map[uint64]uint64
	// forceClientAgg disables provider-side partial aggregation; the E8
	// ablation benchmark measures what it costs.
	forceClientAgg bool

	// shards, when non-nil, makes this Client a shard router built by
	// NewSharded: shards[g] is the fully independent single-group client of
	// provider group g, and every public entry point dispatches to the
	// routing/merging layer in shard.go instead of the engine above. A
	// router uses none of the engine fields except opts (normalized with
	// per-group N) and forceClientAgg.
	shards []*Client
	// ddlMu serializes CREATE/DROP across groups so concurrent DDL cannot
	// leave the groups' schemas forked.
	ddlMu sync.Mutex
	// shardMu guards shardMap and the per-table insert sequences inside it.
	shardMu  sync.Mutex
	shardMap map[string]*shardInfo
}

// SetClientSideAggregates forces aggregates to be computed client-side
// after a full (filtered) scan, instead of provider-side partial
// aggregation. Used by the E8 ablation.
func (c *Client) SetClientSideAggregates(force bool) {
	c.mu.Lock()
	c.forceClientAgg = force
	c.mu.Unlock()
	for _, sub := range c.shards {
		sub.SetClientSideAggregates(force)
	}
}

// New connects a data source to the given provider connections. The order
// of conns is significant: conns[i] is provider i and receives shares
// evaluated at the i-th secret point.
func New(conns []transport.Conn, opts Options) (*Client, error) {
	opts.N = len(conns)
	if opts.N < 1 {
		return nil, fmt.Errorf("%w: no providers", ErrBadOptions)
	}
	if opts.Shards > 1 {
		return nil, fmt.Errorf("%w: Shards=%d needs one connection set per group (use NewSharded)",
			ErrBadOptions, opts.Shards)
	}
	if opts.K < 1 || opts.K > opts.N {
		return nil, fmt.Errorf("%w: k=%d with n=%d", ErrBadOptions, opts.K, opts.N)
	}
	if opts.OPPDegree == 0 {
		opts.OPPDegree = 3
	}
	if opts.IntBits == 0 {
		opts.IntBits = 40
	}
	if opts.IntBits < 2 || opts.IntBits > 61 {
		return nil, fmt.Errorf("%w: IntBits=%d", ErrBadOptions, opts.IntBits)
	}
	if opts.Alphabet == "" {
		opts.Alphabet = defaultAlphabet
	}
	if opts.Rand == nil {
		opts.Rand = rand.Reader
	} else if opts.Rand != rand.Reader {
		// Parallel share encoding draws polynomial randomness from several
		// goroutines; crypto/rand.Reader is safe for concurrent use, but a
		// caller-supplied reader may not be.
		opts.Rand = &lockedReader{r: opts.Rand}
	}
	if opts.ParallelWorkers == 0 {
		opts.ParallelWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.ParallelWorkers < 1 {
		return nil, fmt.Errorf("%w: ParallelWorkers=%d", ErrBadOptions, opts.ParallelWorkers)
	}
	if opts.WriteQuorum == 0 {
		opts.WriteQuorum = opts.N
	}
	if opts.WriteQuorum < opts.K || opts.WriteQuorum > opts.N {
		return nil, fmt.Errorf("%w: WriteQuorum=%d with k=%d, n=%d",
			ErrBadOptions, opts.WriteQuorum, opts.K, opts.N)
	}
	if opts.RepairInterval == 0 {
		opts.RepairInterval = 200 * time.Millisecond
	}
	if len(opts.MasterKey) == 0 {
		return nil, fmt.Errorf("%w: empty master key", ErrBadOptions)
	}
	fieldSch, err := secretshare.NewSchemeFromKey(opts.K, opts.N, opts.MasterKey)
	if err != nil {
		return nil, err
	}
	// Blob key: derived from the master key, AES-256-GCM.
	mac := hmac.New(sha256.New, opts.MasterKey)
	mac.Write([]byte("sssdb/blob-key"))
	blockKey := mac.Sum(nil)
	block, err := aes.NewCipher(blockKey[:32])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	hints, err := openHintJournals(opts.N, opts.HintDir)
	if err != nil {
		return nil, err
	}
	c := &Client{
		opts:     opts,
		conns:    conns,
		fieldSch: fieldSch,
		domains:  make(map[string]*opp.Scheme),
		tables:   make(map[string]*tableMeta),
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
			c.down[i] = true
			c.ensureRepairLoop()
		}
	}
	// Transaction-log recovery: re-drive committed transactions, presumed-
	// abort in-doubt ones (see tx.go). Runs after the hint journals are open
	// so recovery hints land durably.
	if err := c.openTxLog(); err != nil {
		c.stopRepairLoop()
		_ = c.closeHints()
		return nil, err
	}
	return c, nil
}

// defaultAlphabet mirrors numenc.PrintableAlphabet without importing it in
// two places; kept in sync by a test.
const defaultAlphabet = " 0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz"

// Close stops the repair loop, releases hint journals, and closes all
// provider connections. Queued hints persist (when HintDir is set) and are
// reloaded by the next client.
func (c *Client) Close() error {
	if c.shards != nil {
		firstErr := c.closeTxLog()
		for _, sub := range c.shards {
			if err := sub.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	c.stopRepairLoop()
	firstErr := c.closeHints()
	if err := c.closeTxLog(); err != nil && firstErr == nil {
		firstErr = err
	}
	for _, conn := range c.conns {
		if err := conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// N returns the number of providers (per group on a sharded client).
func (c *Client) N() int { return c.opts.N }

// K returns the reconstruction threshold.
func (c *Client) K() int { return c.opts.K }

// Shards returns the number of provider groups (1 for a plain client).
func (c *Client) Shards() int {
	if c.shards == nil {
		return 1
	}
	return len(c.shards)
}

// Stats aggregates traffic counters across all provider connections.
func (c *Client) Stats() transport.Stats {
	if c.shards != nil {
		var total transport.Stats
		for _, sub := range c.shards {
			st := sub.Stats()
			total.BytesSent += st.BytesSent
			total.BytesReceived += st.BytesReceived
			total.Calls += st.Calls
		}
		return total
	}
	var total transport.Stats
	for _, conn := range c.conns {
		st := conn.Stats()
		total.BytesSent += st.BytesSent
		total.BytesReceived += st.BytesReceived
		total.Calls += st.Calls
	}
	return total
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
func (c *Client) call(provider int, req proto.Message, deadline time.Time) (proto.Message, error) {
	start := time.Now()
	resp, err := transport.CallWithDeadline(c.conns[provider], req, deadline)
	if err != nil {
		c.health.observe(provider, time.Since(start), err)
		return nil, err
	}
	if e, ok := resp.(*proto.ErrorResponse); ok {
		err := e.Err()
		c.health.observe(provider, time.Since(start), err)
		return nil, err
	}
	c.health.observe(provider, time.Since(start), nil)
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
func (c *Client) callWrite(build func(provider int) proto.Message) ([]int, error) {
	lag := c.laggingSet()
	msgs := make([]proto.Message, c.opts.N)
	targets := make([]int, 0, c.opts.N)
	for i := 0; i < c.opts.N; i++ {
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
			_, err := c.call(i, msgs[i], noDeadline)
			ch <- res{provider: i, err: err}
		}(i)
	}
	var acked, unreached []int
	var hard, soft []error
	for range targets {
		r := <-ch
		if r.err == nil {
			c.markProvider(r.provider, false)
			acked = append(acked, r.provider)
			continue
		}
		var remote *proto.RemoteError
		if errors.As(r.err, &remote) {
			hard = append(hard, fmt.Errorf("provider %d: %w", r.provider, r.err))
			continue
		}
		c.markProvider(r.provider, true)
		unreached = append(unreached, r.provider)
		soft = append(soft, fmt.Errorf("provider %d: %w", r.provider, r.err))
	}
	sort.Ints(acked)
	if len(hard) > 0 {
		return acked, fmt.Errorf("client: mutation rejected: %w", errors.Join(hard...))
	}
	if len(acked) < c.opts.WriteQuorum {
		return acked, fmt.Errorf("%w: %d write acks of quorum %d (%v)",
			ErrNotEnough, len(acked), c.opts.WriteQuorum, errors.Join(soft...))
	}
	// Committed. Queue the exact share payloads for the providers that
	// missed the round; journal persistence failures are non-fatal (the
	// in-memory queue keeps this process sound).
	hinted := false
	for i := 0; i < c.opts.N; i++ {
		if lag[i] {
			_ = c.hintMutation(i, msgs[i])
			hinted = true
		}
	}
	for _, p := range unreached {
		_ = c.hintMutation(p, msgs[p])
		hinted = true
	}
	if hinted {
		c.ensureRepairLoop()
		c.kickRepair()
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
func (c *Client) providerOrder() []int {
	c.downMu.Lock()
	order := make([]int, 0, c.opts.N)
	tier := make([]int, 0, c.opts.N)
	for i := 0; i < c.opts.N; i++ {
		t := 0
		if c.hints[i].lagging {
			t += 1
		}
		if c.down[i] {
			t += 2
		}
		order = append(order, i)
		tier = append(tier, t)
	}
	c.downMu.Unlock()
	c.rankOrder(order, tier)
	return order
}

// cleanOrder is providerOrder restricted to providers that are not lagging:
// the candidate set for statements whose per-provider results carry no row
// ids to mask (aggregates, joins, verified reads) and for DML. A lagging
// provider would silently compute over a stale share set, so it is not a
// candidate at any priority.
func (c *Client) cleanOrder() []int {
	c.downMu.Lock()
	order := make([]int, 0, c.opts.N)
	tier := make([]int, 0, c.opts.N)
	for i := 0; i < c.opts.N; i++ {
		if c.hints[i].lagging {
			continue
		}
		t := 0
		if c.down[i] {
			t = 1
		}
		order = append(order, i)
		tier = append(tier, t)
	}
	c.downMu.Unlock()
	c.rankOrder(order, tier)
	return order
}

// rankOrder stable-sorts a candidate list by (availability tier, health
// rank): tier dominates — a fast-but-lagging provider never overtakes a
// caught-up one — and health breaks ties within it. tier is indexed
// parallel to order's initial (ascending provider index) layout, so it is
// captured by position before sorting.
func (c *Client) rankOrder(order, tier []int) {
	now := time.Now()
	type key struct{ tier, rank int }
	keys := make(map[int]key, len(order))
	for j, p := range order {
		keys[p] = key{tier: tier[j], rank: c.health.rank(p, now)}
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
func (c *Client) markProvider(provider int, down bool) {
	c.downMu.Lock()
	c.down[provider] = down
	c.downMu.Unlock()
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
func (c *Client) callQuorum(need int, build func(provider int) proto.Message, deadline time.Time) ([]indexedResponse, error) {
	if need > c.opts.N {
		return nil, fmt.Errorf("%w: need %d of %d", ErrNotEnough, need, c.opts.N)
	}
	order := c.cleanOrder()
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
			msg, err := c.call(p, build(p), deadline)
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
	threshold := c.hedgeThreshold()
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
				c.markProvider(r.provider, true)
				// Plain failover: replace the failed candidate if the
				// quorum still needs it.
				if len(got)+inflight < need && next < len(order) {
					launch(order[next])
					next++
					inflight++
				}
				break
			}
			c.markProvider(r.provider, false)
			if len(got) < need {
				if hedgedProvs[r.provider] {
					c.health.hedgesWon.Add(1)
				}
				got = append(got, indexedResponse{provider: r.provider, msg: r.msg})
			}
		case <-hedgeCh:
			for p, at := range launchedAt {
				if stalled := time.Since(at); stalled >= threshold {
					c.health.observeStall(p, stalled)
					delete(launchedAt, p) // one stall sample per statement
				}
			}
			if c.health.allowHedge() {
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
func (c *Client) callAvailable(minNeed int, build func(provider int) proto.Message, deadline time.Time) ([]indexedResponse, error) {
	type res struct {
		provider int
		msg      proto.Message
		err      error
	}
	candidates := c.cleanOrder()
	ch := make(chan res, len(candidates))
	for _, i := range candidates {
		go func(i int) {
			msg, err := c.call(i, build(i), deadline)
			ch <- res{provider: i, msg: msg, err: err}
		}(i)
	}
	var got []indexedResponse
	var errs []error
	for range candidates {
		r := <-ch
		if r.err != nil {
			c.markProvider(r.provider, true)
			errs = append(errs, fmt.Errorf("provider %d: %w", r.provider, r.err))
			continue
		}
		c.markProvider(r.provider, false)
		got = append(got, indexedResponse{provider: r.provider, msg: r.msg})
	}
	return settleQuorum(got, minNeed, errs, deadline)
}

// table looks up catalog metadata.
func (c *Client) table(name string) (*tableMeta, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}
