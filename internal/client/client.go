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
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sssdb/internal/opp"
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
	// cross-checked. Joins and a transaction's snapshot reads run
	// unverified and report Result.Verified = false; an explicit VERIFIED
	// on either is refused with ErrUnsupported.
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
	// hash-partitioned across; 0 means 1 (every provider holds a share of
	// every row). The open helpers split the provider list into Shards equal
	// groups — each its own K-of-N quorum with independent hint journals and
	// repair — and hand them to NewSharded, which rejects a Shards that
	// disagrees with the number of groups it is given.
	Shards int
	// ReadDeadline, when positive, bounds the end-to-end latency of each
	// read statement (Query/QueryRows and their sharded scatter-gather):
	// the absolute deadline is fixed when the statement starts and
	// propagates through provider calls, streaming scans, and transport
	// dial/retry backoffs; a provider call it cuts short is cancelled at the
	// provider (a queued request never runs, a scan stops). A
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
	// value instead of on the insert sequence, which lets point predicates
	// on the column route to a single group. Only meaningful with more than
	// one group.
	ShardKeys map[string]string

	// N is derived from the number of connections per group.
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

// Client is a data source over G >= 1 provider groups, each an independent
// k-of-n share quorum (an engine). Rows of every table are hash-partitioned
// across the groups (shard.go); with one group every statement routes to it.
// The Client owns what is per database — SQL parsing, the catalog, routing,
// the transaction log and the two-phase commit — and runs every statement
// through one pipeline: parse once, plan once against the catalog, scatter
// the plan to the routed groups (each task under its group's statement
// lock), merge the per-group partials, finish.
//
// Locking: there is no client-wide statement lock, and a statement's task in
// one group holds only that group's lock (see engine for the shared and
// exclusive classes): a scatter-gathered statement observes each group at an
// independent instant, and statements on different groups never contend.
// DDL, catalog import and commits hold every group's lock exclusively
// (lock), so the catalog only changes with all of them held, and a task that
// holds its group's lock and finds its table not dropped keeps a stable
// schema until it unlocks. catalog.mu is a leaf lock held only around map
// accesses.
type Client struct {
	// opts is the normalized options every group runs under (N is per
	// group, Shards the group count); HintDir is the root directory.
	opts   Options
	groups []*engine
	cat    *catalog
	// domains caches the order-preserving scheme of each value domain, one
	// instance shared by every group. Only DDL and catalog import touch it,
	// under every group's exclusive lock.
	domains map[string]*opp.Scheme
	// forceClientAgg disables provider-side partial aggregation; the E8
	// ablation benchmark measures what it costs.
	forceClientAgg atomic.Bool

	// txLog is the transaction log (txlog.wal under HintDir): per-provider
	// op batches and the commit decision of every multi-statement
	// transaction, appended ahead of the 2PC rounds so a coordinator crash
	// is recoverable (see tx.go). nil without HintDir. Only Commit (under
	// every group's exclusive statement lock) and Close touch it.
	txLog *wal.Log
	// txUnresolved counts the transactions in txLog that may have reached a
	// provider and are not resolved yet (see resolveTxLog).
	txUnresolved int
	// txHook, when non-nil, runs between 2PC stages ("intent", "prepared",
	// "committed"); crash-injection tests return an error from it to
	// simulate the coordinator dying at that point.
	txHook func(stage string) error
}

// catalog is the client-side schema: one tableMeta per outsourced table,
// shared by the Client and its engines.
type catalog struct {
	mu     sync.RWMutex
	tables map[string]*tableMeta
}

// table looks up catalog metadata.
func (cat *catalog) table(name string) (*tableMeta, error) {
	cat.mu.RLock()
	defer cat.mu.RUnlock()
	t, ok := cat.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// list snapshots the catalog's tables in name order.
func (cat *catalog) list() []*tableMeta {
	cat.mu.RLock()
	defer cat.mu.RUnlock()
	out := make([]*tableMeta, 0, len(cat.tables))
	for _, t := range cat.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetClientSideAggregates forces aggregates to be computed client-side
// after a full (filtered) scan, instead of provider-side partial
// aggregation. Used by the E8 ablation.
func (c *Client) SetClientSideAggregates(force bool) { c.forceClientAgg.Store(force) }

// New connects a data source to one group of providers. The order of conns
// is significant: conns[i] is provider i and receives shares evaluated at
// the i-th secret point.
func New(conns []transport.Conn, opts Options) (*Client, error) {
	return NewSharded([][]transport.Conn{conns}, opts)
}

// NewSharded connects a data source to G provider groups: groups[g] holds
// the connections of group g (all groups the same size; conns[i] of a group
// is its provider i, sharing evaluation point i with every other group).
// With HintDir set, one group keeps its hint journals directly under it and
// several keep them in one group-g subdirectory each; the transaction log
// sits at the root either way.
func NewSharded(groups [][]transport.Conn, opts Options) (*Client, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("%w: no provider groups", ErrBadOptions)
	}
	if opts.Shards > 1 && opts.Shards != len(groups) {
		return nil, fmt.Errorf("%w: Shards=%d with %d connection groups", ErrBadOptions, opts.Shards, len(groups))
	}
	opts.Shards = len(groups)
	opts.N = len(groups[0])
	if opts.N < 1 {
		return nil, fmt.Errorf("%w: no providers", ErrBadOptions)
	}
	for g, conns := range groups {
		if len(conns) != opts.N {
			return nil, fmt.Errorf("%w: group %d has %d providers, group 0 has %d",
				ErrBadOptions, g, len(conns), opts.N)
		}
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
	c := &Client{
		opts:    opts,
		cat:     &catalog{tables: make(map[string]*tableMeta)},
		domains: make(map[string]*opp.Scheme),
	}
	for g, conns := range groups {
		gopts := opts
		if gopts.HintDir != "" && len(groups) > 1 {
			gopts.HintDir = filepath.Join(gopts.HintDir, fmt.Sprintf("group-%d", g))
		}
		e, err := newEngine(g, conns, gopts, c.cat, fieldSch, aead)
		if err != nil {
			c.closeGroups()
			return nil, c.tagGroup(g, err)
		}
		c.groups = append(c.groups, e)
	}
	// Transaction-log recovery: re-drive committed transactions, presumed-
	// abort in-doubt ones (see tx.go). Runs after every group's hint journals
	// are open so recovery hints land durably.
	if err := c.openTxLog(); err != nil {
		c.closeGroups()
		return nil, err
	}
	return c, nil
}

// defaultAlphabet mirrors numenc.PrintableAlphabet without importing it in
// two places; kept in sync by a test.
const defaultAlphabet = " 0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz"

// Close pushes buffered lazy updates — Exec has already reported them
// applied — and then, whatever that flush's outcome, releases the
// transaction log, stops every group's repair loop, releases its hint
// journals, and closes its provider connections. Queued hints persist (when
// HintDir is set) and are reloaded by the next client. With nothing buffered
// Close takes no statement lock, so a Rows left open does not hold it up.
func (c *Client) Close() error {
	return errors.Join(c.Flush(), c.closeTxLog(), c.closeGroups())
}

func (c *Client) closeGroups() error {
	var firstErr error
	for _, e := range c.groups {
		if err := e.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// N returns the number of providers per group.
func (c *Client) N() int { return c.opts.N }

// K returns the reconstruction threshold.
func (c *Client) K() int { return c.opts.K }

// Shards returns the number of provider groups.
func (c *Client) Shards() int { return len(c.groups) }

// Stats aggregates traffic counters across all provider connections.
func (c *Client) Stats() transport.Stats {
	var total transport.Stats
	for _, e := range c.groups {
		for _, p := range e.provs {
			st := p.conn.Stats()
			total.BytesSent += st.BytesSent
			total.BytesReceived += st.BytesReceived
			total.Calls += st.Calls
		}
	}
	return total
}

// fan is the client's one fan-out: it runs fn(i, g) for every targets[i] = g
// and joins the failures, each tagged with its group. A single target is a
// direct call on the caller's goroutine; several run concurrently, so fn
// writes its result into a slot indexed by i.
func (c *Client) fan(targets []int, fn func(i, g int) error) error {
	if len(targets) == 1 {
		return c.tagGroup(targets[0], fn(0, targets[0]))
	}
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, g := range targets {
		wg.Add(1)
		go func(i, g int) {
			defer wg.Done()
			errs[i] = c.tagGroup(g, fn(i, g))
		}(i, g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// tagGroup names the group an error came from, when there is more than one.
func (c *Client) tagGroup(g int, err error) error {
	if err == nil || c.opts.Shards == 1 {
		return err
	}
	return fmt.Errorf("shard group %d: %w", g, err)
}

// scatter is how a statement reaches its routed groups: fan, with each
// group's task holding that group's statement lock — and only that one, only
// for as long as the task runs, so concurrent statements pipeline through
// the groups instead of queueing behind each other's slowest group. A task
// finds the statement's tables still in the catalog or fails with
// ErrNoSuchTable (see lockGroup).
func (c *Client) scatter(targets []int, exclusive bool, metas []*tableMeta, fn func(i int, e *engine) error) error {
	return c.fan(targets, func(i, g int) error {
		unlock, err := c.lockGroup(g, exclusive, metas)
		if err != nil {
			return err
		}
		defer unlock()
		return fn(i, c.groups[g])
	})
}

// lockGroup takes group g's statement lock, exclusively or shared, and then
// confirms that none of the statement's tables was dropped while it waited:
// DROP flips tableMeta.dropped under every group's exclusive lock, so the
// answer holds until unlock.
func (c *Client) lockGroup(g int, exclusive bool, metas []*tableMeta) (unlock func(), err error) {
	e := c.groups[g]
	if exclusive {
		e.mu.Lock()
		unlock = e.mu.Unlock
	} else {
		e.mu.RLock()
		unlock = e.mu.RUnlock
	}
	for _, meta := range metas {
		if meta.dropped {
			unlock()
			return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, meta.Name)
		}
	}
	return unlock, nil
}

// lock takes the statement locks of several groups at once, for what must
// see or change them together: DDL, catalog import and commits (every group,
// exclusively) and a streaming Rows (its routed groups, shared, until
// Close). Groups lock in the ascending order allGroups and routeGroups list
// them, so two such holders cannot deadlock.
func (c *Client) lock(targets []int, exclusive bool, metas ...*tableMeta) (unlock func(), err error) {
	unlocks := make([]func(), 0, len(targets))
	unlock = func() {
		for _, u := range unlocks {
			u()
		}
	}
	for _, g := range targets {
		u, err := c.lockGroup(g, exclusive, metas)
		if err != nil {
			unlock()
			return nil, err
		}
		unlocks = append(unlocks, u)
	}
	return unlock, nil
}

// allGroups lists every group: the targets of DDL, commits, and statements
// no shard key narrows.
func (c *Client) allGroups() []int {
	out := make([]int, len(c.groups))
	for i := range out {
		out[i] = i
	}
	return out
}
