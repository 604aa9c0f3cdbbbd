// Package sssdb is a secret-sharing database-as-a-service: a Go
// implementation of the outsourcing framework from "Database Management as
// a Service: Challenges and Opportunities" (Agrawal, El Abbadi, Emekci,
// Metwally — ICDE 2009).
//
// Instead of encrypting outsourced data, sssdb splits every value into
// shares spread across n independent Database Service Providers:
//
//   - a random Shamir share over GF(2^61-1) per provider — information-
//     theoretically secure, additively homomorphic (providers compute SUM
//     partials without learning anything), reconstructable from any k;
//   - an order-preserving polynomial share per provider (Sec. IV of the
//     paper) — deterministic per value domain, so providers can filter
//     exact-match and range predicates, order rows for MIN/MAX/MEDIAN, and
//     execute same-domain equijoins entirely in share space.
//
// The client (the paper's "data source D") speaks SQL:
//
//	cluster, _ := sssdb.OpenLocal(3, sssdb.Options{K: 2, MasterKey: key})
//	defer cluster.Close()
//	db := cluster.Client
//	db.Exec(`CREATE TABLE employees (name VARCHAR(8), salary INT)`)
//	db.Exec(`INSERT INTO employees VALUES ('JOHN', 42000)`)
//	res, _ := db.Exec(`SELECT name FROM employees WHERE salary BETWEEN 10000 AND 50000`)
//
// Appending VERIFIED to a SELECT (or setting Options.Verified) turns on the
// trust machinery: Merkle completeness proofs per provider, cross-provider
// row-set voting, and robust share reconstruction that identifies which
// providers returned corrupted data. Joins run unverified.
//
// The packages under internal/ implement every subsystem — field
// arithmetic, Shamir sharing, order-preserving polynomials, the provider
// storage engine (B+-tree indexes, WAL durability), the wire protocol, the
// SQL front end — plus the baselines the paper argues against (encrypted
// outsourcing, PIR, commutative-encryption PSI). See DESIGN.md for the map
// and EXPERIMENTS.md for the reproduced results.
package sssdb

import (
	"fmt"
	"time"

	"sssdb/internal/client"
	"sssdb/internal/proto"
	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

// Client is the data source: it owns the master key, outsources tables as
// shares, rewrites SQL into share-space requests, and reconstructs results
// from any K of N providers.
type Client = client.Client

// Options configures a Client; see the field docs in internal/client.
type Options = client.Options

// Result is the outcome of one statement.
type Result = client.Result

// Rows is an incremental SELECT result, returned by Client.QueryRows:
// streaming-eligible queries deliver rows as provider chunks arrive with
// bounded memory; everything else iterates a materialized result. Always
// Close a Rows.
type Rows = client.Rows

// Value is a typed cell value.
type Value = client.Value

// Tx is a multi-statement transaction handle, returned by Client.Begin.
// Reads inside a Tx see a snapshot of committed state as of Begin; writes
// buffer client-side and land atomically at Commit via a client-coordinated
// two-phase commit across the provider fleet (all groups of a sharded
// client included). Rollback discards the buffer. Not safe for concurrent
// use.
type Tx = client.Tx

// AuditReport summarizes a verified full-table sweep.
type AuditReport = client.AuditReport

// Value kind tags.
const (
	KindInt     = client.KindInt
	KindDecimal = client.KindDecimal
	KindString  = client.KindString
	KindBytes   = client.KindBytes
)

// Value constructors, re-exported for bulk loading via InsertValues.
var (
	IntValue     = client.IntValue
	DecimalValue = client.DecimalValue
	StringValue  = client.StringValue
	BytesValue   = client.BytesValue
)

// Common errors surfaced by Exec.
var (
	ErrNoSuchTable  = client.ErrNoSuchTable
	ErrNoSuchColumn = client.ErrNoSuchColumn
	ErrTypeMismatch = client.ErrTypeMismatch
	ErrUnsupported  = client.ErrUnsupported
	ErrNotEnough    = client.ErrNotEnough
	ErrVerification = client.ErrVerification
	// ErrDeadline reports a read statement that ran out of its
	// Options.ReadDeadline budget before K providers answered.
	ErrDeadline = client.ErrDeadline
	// ErrTxDone reports use of a committed or rolled-back Tx.
	ErrTxDone = client.ErrTxDone
	// ErrTxAborted reports a Commit that could not reach its write quorum
	// and rolled back everywhere.
	ErrTxAborted = client.ErrTxAborted
)

// DialConfig tunes how the client connects to providers over TCP. A
// provider that does not answer within Timeout is treated as crashed, and
// reads fail over to the remaining providers (they need only K of N).
type DialConfig = transport.DialConfig

// Open connects a data source to n providers listening at the given TCP
// addresses (for providers started with cmd/dasd). The address order is
// significant: providers are identified by their position, which selects
// the secret evaluation point their shares are computed at.
func Open(addrs []string, opts Options) (*Client, error) {
	return OpenWith(addrs, opts, DialConfig{})
}

// OpenTimeout is Open with DialConfig.Timeout set: timeout bounds each
// connect, handshake and request attempt, and a call that redials or is
// retried after a busy rejection gets a fresh one per attempt, so it is not
// a bound on the whole call (Options.ReadDeadline bounds a whole read). See
// DialConfig.Timeout.
func OpenTimeout(addrs []string, opts Options, timeout time.Duration) (*Client, error) {
	return OpenWith(addrs, opts, DialConfig{Timeout: timeout})
}

// OpenWith is Open with full transport configuration. addrs holds
// Options.Shards equal-sized provider groups laid out consecutively (group
// 0's providers first, then group 1's, ...); the default is one group.
func OpenWith(addrs []string, opts Options, dc DialConfig) (*Client, error) {
	conns := make([]transport.Conn, 0, len(addrs))
	for _, addr := range addrs {
		conn, err := transport.DialWith(addr, dc)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("sssdb: connecting to provider %q: %w", addr, err)
		}
		conns = append(conns, conn)
	}
	groups, err := splitGroups(conns, opts.Shards)
	if err != nil {
		for _, c := range conns {
			c.Close()
		}
		return nil, err
	}
	return client.NewSharded(groups, opts)
}

// splitGroups partitions a flat consecutive connection list into shards
// equal provider groups (0 means one).
func splitGroups(conns []transport.Conn, shards int) ([][]transport.Conn, error) {
	shards = max(shards, 1)
	if len(conns)%shards != 0 {
		return nil, fmt.Errorf("sssdb: %d providers do not divide into %d equal shard groups",
			len(conns), shards)
	}
	per := len(conns) / shards
	groups := make([][]transport.Conn, shards)
	for g := range groups {
		groups[g] = conns[g*per : (g+1)*per]
	}
	return groups, nil
}

// Cluster is an in-process deployment: n provider engines plus a connected
// client, for examples, tests, and single-machine use. Each provider runs
// behind the deployed transport server, reached over in-memory pipes
// instead of TCP, so every call takes the network protocol's steps and byte
// accounting matches a network deployment, handshakes included.
// Fault-injection knobs let examples and experiments crash or corrupt
// individual providers.
type Cluster struct {
	// Client is the connected data source.
	Client *Client
	stores []*store.Store
	faults []*transport.FaultyConn
	// groupSize is the providers-per-group count. Provider (g, i) sits at
	// flat index g*groupSize+i in stores and faults.
	groupSize int
}

// CrashProvider makes provider i (flat index) unreachable until
// RecoverProvider.
func (c *Cluster) CrashProvider(i int) { c.faults[i].Crash() }

// RecoverProvider brings a crashed provider back.
func (c *Cluster) RecoverProvider(i int) { c.faults[i].Recover() }

// CrashProviderAt crashes provider i of shard group g.
func (c *Cluster) CrashProviderAt(g, i int) { c.CrashProvider(g*c.groupSize + i) }

// RecoverProviderAt recovers provider i of shard group g.
func (c *Cluster) RecoverProviderAt(g, i int) { c.RecoverProvider(g*c.groupSize + i) }

// CorruptProvider makes provider i (flat index) malicious: it flips bits in
// every field share it returns (on=false restores honesty). Verified
// queries and Audit detect and identify it.
func (c *Cluster) CorruptProvider(i int, on bool) {
	if !on {
		c.faults[i].SetCorrupter(nil)
		return
	}
	c.faults[i].SetCorrupter(func(resp proto.Message) proto.Message {
		if rr, ok := resp.(*proto.RowsResponse); ok {
			for r := range rr.Rows {
				for j, cell := range rr.Rows[r].Cells {
					// A join pair's right row id is 8 bytes too, and no share.
					if len(cell) == 8 && (j >= len(rr.Columns) || rr.Columns[j] != proto.JoinRightID) {
						rr.Rows[r].Cells[j][0] ^= 0xa5
					}
				}
			}
		}
		return resp
	})
}

// CorruptProviderAt corrupts provider i of shard group g.
func (c *Cluster) CorruptProviderAt(g, i int, on bool) {
	c.CorruptProvider(g*c.groupSize+i, on)
}

// NumProviders returns the total provider count across all groups.
func (c *Cluster) NumProviders() int { return len(c.stores) }

// NumGroups returns the shard group count (1 when unsharded).
func (c *Cluster) NumGroups() int { return len(c.stores) / c.groupSize }

// OpenLocal starts opts.Shards provider groups (default one) of n in-memory
// providers each and connects a client.
func OpenLocal(n int, opts Options) (*Cluster, error) {
	return openLocalWith(make([]string, n*max(opts.Shards, 1)), opts, StoreOptions{})
}

// OpenLocalSharded starts `groups` provider groups of perGroup in-memory
// providers each and connects a client that hash-partitions every table's
// rows across the groups. opts.Shards is overridden with groups.
func OpenLocalSharded(groups, perGroup int, opts Options) (*Cluster, error) {
	opts.Shards = groups
	return openLocalWith(make([]string, groups*perGroup), opts, StoreOptions{})
}

// OpenLocalDirs starts one durable provider per directory (state persists
// across restarts via each provider's snapshot + write-ahead log) and
// connects a client. The directories are split into opts.Shards consecutive
// equal groups.
func OpenLocalDirs(dirs []string, opts Options) (*Cluster, error) {
	return openLocalWith(dirs, opts, StoreOptions{})
}

// StoreOptions tunes per-provider storage: page size, page-cache budget,
// and checkpoint cadence. The zero value means defaults everywhere.
type StoreOptions = store.Options

// OpenLocalDirsWith is OpenLocalDirs with explicit storage options, for
// providers whose tables are bigger than the memory they may use: a
// bounded CacheBytes keeps each provider's resident pages within budget
// while cold pages fault in from disk on demand.
func OpenLocalDirsWith(dirs []string, opts Options, storeOpts StoreOptions) (*Cluster, error) {
	return openLocalWith(dirs, opts, storeOpts)
}

func openLocalWith(dirs []string, opts Options, storeOpts StoreOptions) (*Cluster, error) {
	cl := &Cluster{}
	conns := make([]transport.Conn, 0, len(dirs))
	for _, dir := range dirs {
		st, err := store.OpenOptions(dir, storeOpts)
		if err != nil {
			cl.closeProviders()
			return nil, err
		}
		cl.stores = append(cl.stores, st)
		fc := transport.NewFaulty(transport.NewLocal(server.New(st)))
		cl.faults = append(cl.faults, fc)
		conns = append(conns, fc)
	}
	groups, err := splitGroups(conns, opts.Shards)
	if err != nil {
		cl.closeProviders()
		return nil, err
	}
	cl.groupSize = len(groups[0])
	c, err := client.NewSharded(groups, opts)
	if err != nil {
		cl.closeProviders()
		return nil, err
	}
	cl.Client = c
	return cl, nil
}

// Close shuts down the client and all providers.
func (c *Cluster) Close() error {
	var firstErr error
	if c.Client != nil {
		if err := c.Client.Close(); err != nil {
			firstErr = err
		}
	}
	if err := c.closeProviders(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// closeProviders stops each provider's in-process server (closing its
// connection) and then its store. After a successful open the client has
// already closed the connections; on a failed one nothing else would.
func (c *Cluster) closeProviders() error {
	var firstErr error
	for _, fc := range c.faults {
		fc.Close()
	}
	for _, st := range c.stores {
		if err := st.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
