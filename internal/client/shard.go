package client

// Horizontal sharding: the row space of every table is hash-partitioned
// across multiple provider groups, each its own independent k-of-n share
// quorum (the multi-provider scale-out the paper's DaaS framing argues
// for). A shard router is a Client whose shards field holds one
// single-group client per group; the router parses statements, routes them
// to the owning group(s), fans out in parallel, and merges the per-group
// results. Hint journals, the repair loop, and Merkle resync all live in
// the sub-clients, so degraded writes and readmission work per
// (group, provider) with no extra machinery.
//
// Routing: a table is partitioned either on the insert sequence (default —
// every statement scatter-gathers) or, when Options.ShardKeys names one of
// its columns, on that column's encoded value, in which case a top-level
// equality (or IN) predicate on the shard key routes to the owning
// group(s) only.
//
// Isolation is per group: the router takes no global statement lock, so a
// scatter-gathered read observes each group at an independent instant.
// Within one group the single-group guarantees hold unchanged.

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"sssdb/internal/sql"
	"sssdb/internal/transport"
)

// shardInfo is the router's per-table shard map entry.
type shardInfo struct {
	// column names the shard-key column; "" means insert-sequence hashing.
	column string
	// ci is column's index in tableMeta.Cols (-1 for sequence hashing).
	ci int
	// version counts shard-map generations for this table; a catalog import
	// into a cluster with a different group count is rejected, which is how
	// a client detects a split it does not understand.
	version int
	// nextSeq is the insert-sequence frontier (sequence hashing only).
	nextSeq uint64
}

// NewSharded connects a shard router: groups[g] holds the connections of
// provider group g (all groups the same size; conns[i] of a group is its
// provider i, sharing evaluation point i with every other group). Options
// apply to each group as they would to New, with HintDir split into one
// subdirectory per group. A single group degrades to a plain client.
func NewSharded(groups [][]transport.Conn, opts Options) (*Client, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("%w: no provider groups", ErrBadOptions)
	}
	if len(groups) == 1 {
		opts.Shards = 0
		return New(groups[0], opts)
	}
	size := len(groups[0])
	for g, conns := range groups {
		if len(conns) != size {
			return nil, fmt.Errorf("%w: group %d has %d providers, group 0 has %d",
				ErrBadOptions, g, len(conns), size)
		}
	}
	subOpts := opts
	subOpts.Shards = 0
	shards := make([]*Client, 0, len(groups))
	for g, conns := range groups {
		so := subOpts
		if so.HintDir != "" {
			so.HintDir = filepath.Join(so.HintDir, fmt.Sprintf("group-%d", g))
		}
		sub, err := New(conns, so)
		if err != nil {
			for _, prev := range shards {
				prev.Close()
			}
			return nil, fmt.Errorf("client: shard group %d: %w", g, err)
		}
		shards = append(shards, sub)
	}
	// The router's own opts mirror a sub-client's normalized copy (so N()
	// and K() report per-group values) plus the group count — except
	// HintDir, which must point back at the ROOT directory: the sub-copy
	// holds group 0's subdirectory, and the router's cross-group
	// transaction log (txlog.wal, see tx.go) lives beside the group
	// subdirectories, not inside one of them.
	ropts := shards[0].opts
	ropts.Shards = len(groups)
	ropts.HintDir = opts.HintDir
	router := &Client{
		opts:     ropts,
		shards:   shards,
		shardMap: make(map[string]*shardInfo),
	}
	// Cross-group transaction recovery: committed multi-group transactions
	// whose fate was undecided at the last shutdown are re-driven, in-doubt
	// ones presumed-aborted (global provider index g*N+i maps back onto the
	// owning group's sub-client).
	if err := router.openTxLog(); err != nil {
		for _, sub := range shards {
			sub.Close()
		}
		return nil, err
	}
	return router, nil
}

// shardHash is the splitmix64 finalizer: a cheap, well-mixed hash from an
// encoded shard-key value (or insert sequence number) onto groups.
func shardHash(u uint64) uint64 {
	u += 0x9e3779b97f4a7c15
	u = (u ^ (u >> 30)) * 0xbf58476d1ce4e5b9
	u = (u ^ (u >> 27)) * 0x94d049bb133111eb
	return u ^ (u >> 31)
}

func (c *Client) groupForHash(u uint64) int {
	return int(shardHash(u) % uint64(len(c.shards)))
}

func (c *Client) allGroups() []int {
	out := make([]int, len(c.shards))
	for i := range out {
		out[i] = i
	}
	return out
}

// shardTable resolves a table on the router: the shard map entry plus
// group 0's metadata (schemas are identical across groups by construction).
func (c *Client) shardTable(name string) (*tableMeta, *shardInfo, error) {
	c.shardMu.Lock()
	info := c.shardMap[name]
	c.shardMu.Unlock()
	if info == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	sub := c.shards[0]
	sub.mu.RLock()
	meta := sub.tables[name]
	sub.mu.RUnlock()
	if meta == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return meta, info, nil
}

// routeGroups picks the target groups of a statement from its WHERE
// conjuncts: a top-level equality on the shard key routes to the one owning
// group, IN to the union of its members' groups, anything else (or any
// value that fails to parse — the scatter path surfaces the identical
// error) to every group.
func (c *Client) routeGroups(meta *tableMeta, info *shardInfo, where []sql.Predicate) []int {
	if info.column == "" {
		return c.allGroups()
	}
	cm := &meta.Cols[info.ci]
	for _, p := range where {
		if p.Col.Name != info.column {
			continue
		}
		if p.Col.Table != "" && p.Col.Table != meta.Name {
			continue
		}
		switch p.Op {
		case sql.OpEq:
			v, err := cm.parseValue(p.Lo)
			if err != nil {
				return c.allGroups()
			}
			enc, err := cm.encode(v)
			if err != nil {
				return c.allGroups()
			}
			return []int{c.groupForHash(enc)}
		case sql.OpIn:
			seen := make(map[int]bool)
			var targets []int
			for _, lit := range p.List {
				v, err := cm.parseValue(lit)
				if err != nil {
					return c.allGroups()
				}
				enc, err := cm.encode(v)
				if err != nil {
					return c.allGroups()
				}
				if g := c.groupForHash(enc); !seen[g] {
					seen[g] = true
					targets = append(targets, g)
				}
			}
			if len(targets) == 0 {
				return c.allGroups()
			}
			sort.Ints(targets)
			return targets
		}
	}
	return c.allGroups()
}

// fanExec runs one raw statement on each target group concurrently and
// returns the per-target results. A failed group leaves a nil result; the
// error joins every group's failure, tagged with its group index.
func (c *Client) fanExec(targets []int, query string) ([]*Result, error) {
	if len(targets) == 1 {
		res, err := c.shards[targets[0]].Exec(query)
		if err != nil {
			return []*Result{nil}, fmt.Errorf("shard group %d: %w", targets[0], err)
		}
		return []*Result{res}, nil
	}
	results := make([]*Result, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, g := range targets {
		wg.Add(1)
		go func(i, g int) {
			defer wg.Done()
			res, err := c.shards[g].Exec(query)
			if err != nil {
				errs[i] = fmt.Errorf("shard group %d: %w", g, err)
				return
			}
			results[i] = res
		}(i, g)
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// shardExec is the router's Exec: parse once, route, fan out, merge.
func (c *Client) shardExec(query string) (*Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sql.Select:
		return c.shardSelect(s, query)
	case *sql.Explain:
		return c.shardExplain(s, query)
	case *sql.Insert:
		return c.shardInsert(s)
	case *sql.CreateTable:
		return c.shardCreateTable(s, query)
	case *sql.DropTable:
		return c.shardDropTable(s, query)
	case *sql.Update:
		return c.shardUpdate(s, query)
	case *sql.Delete:
		return c.shardDelete(s, query)
	case *sql.BeginTx, *sql.CommitTx, *sql.RollbackTx:
		return nil, fmt.Errorf("%w: %T outside a transaction handle (use Client.Begin and Tx.Exec)",
			ErrUnsupported, stmt)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupported, stmt)
	}
}

// --- DDL ---

func (c *Client) shardCreateTable(s *sql.CreateTable, query string) (*Result, error) {
	info := &shardInfo{ci: -1, version: 1}
	if col, ok := c.opts.ShardKeys[s.Name]; ok {
		for i, def := range s.Columns {
			if def.Name == col {
				if def.Type == sql.TypeBlob {
					return nil, fmt.Errorf("%w: shard key %q of table %q is a BLOB",
						ErrBadSchema, col, s.Name)
				}
				info.column, info.ci = col, i
			}
		}
		if info.ci < 0 {
			return nil, fmt.Errorf("%w: shard key %q is not a column of table %q",
				ErrBadSchema, col, s.Name)
		}
	}
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	c.shardMu.Lock()
	_, exists := c.shardMap[s.Name]
	c.shardMu.Unlock()
	if exists {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, s.Name)
	}
	targets := c.allGroups()
	results, err := c.fanExec(targets, query)
	if err != nil {
		// Compensate: drop from the groups that did create it, or the
		// groups' schemas fork.
		for i, g := range targets {
			if results[i] != nil {
				_, _ = c.shards[g].Exec("DROP TABLE " + s.Name)
			}
		}
		return nil, err
	}
	c.shardMu.Lock()
	c.shardMap[s.Name] = info
	c.shardMu.Unlock()
	return &Result{}, nil
}

func (c *Client) shardDropTable(s *sql.DropTable, query string) (*Result, error) {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	if _, _, err := c.shardTable(s.Name); err != nil {
		return nil, err
	}
	if _, err := c.fanExec(c.allGroups(), query); err != nil {
		return nil, err
	}
	c.shardMu.Lock()
	delete(c.shardMap, s.Name)
	c.shardMu.Unlock()
	return &Result{}, nil
}

// --- INSERT ---

func (c *Client) shardInsert(s *sql.Insert) (*Result, error) {
	meta, _, err := c.shardTable(s.Table)
	if err != nil {
		return nil, err
	}
	rows := make([][]Value, 0, len(s.Rows))
	for _, litRow := range s.Rows {
		if len(litRow) != len(meta.Cols) {
			return nil, fmt.Errorf("%w: %d values for %d columns",
				ErrTypeMismatch, len(litRow), len(meta.Cols))
		}
		vals := make([]Value, len(litRow))
		for i, lit := range litRow {
			v, err := meta.Cols[i].parseValue(lit)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		rows = append(rows, vals)
	}
	return c.shardInsertRows(s.Table, rows)
}

// shardInsertRows partitions typed rows onto their owning groups — by the
// shard key's encoded value, or by fresh insert sequence numbers — and runs
// the per-group inserts concurrently. Atomicity is per group: if one group
// fails its batch (which that group rolls back), batches committed by other
// groups stay committed, and the joined error reports which groups failed.
func (c *Client) shardInsertRows(table string, rows [][]Value) (*Result, error) {
	meta, info, err := c.shardTable(table)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return &Result{}, nil
	}
	for _, row := range rows {
		if len(row) != len(meta.Cols) {
			return nil, fmt.Errorf("%w: %d values for %d columns",
				ErrTypeMismatch, len(row), len(meta.Cols))
		}
	}
	batches := make([][][]Value, len(c.shards))
	if info.column != "" {
		cm := &meta.Cols[info.ci]
		for _, row := range rows {
			enc, err := cm.encode(row[info.ci])
			if err != nil {
				return nil, err
			}
			g := c.groupForHash(enc)
			batches[g] = append(batches[g], row)
		}
	} else {
		c.shardMu.Lock()
		base := info.nextSeq
		info.nextSeq += uint64(len(rows))
		c.shardMu.Unlock()
		for i, row := range rows {
			g := c.groupForHash(base + uint64(i))
			batches[g] = append(batches[g], row)
		}
	}
	errs := make([]error, len(c.shards))
	affected := make([]uint64, len(c.shards))
	var wg sync.WaitGroup
	for g := range c.shards {
		if len(batches[g]) == 0 {
			continue
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := c.shards[g].InsertValues(table, batches[g])
			if err != nil {
				errs[g] = fmt.Errorf("shard group %d: %w", g, err)
				return
			}
			affected[g] = res.Affected
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var total uint64
	for _, a := range affected {
		total += a
	}
	return &Result{Affected: total}, nil
}

// --- UPDATE / DELETE ---

func (c *Client) shardUpdate(s *sql.Update, query string) (*Result, error) {
	meta, info, err := c.shardTable(s.Table)
	if err != nil {
		return nil, err
	}
	if info.column != "" {
		for _, a := range s.Set {
			if a.Col == info.column {
				// Re-assigning the shard key would strand the row in a group
				// the router no longer routes its key to.
				return nil, fmt.Errorf("%w: UPDATE of shard key %q (delete and re-insert instead)",
					ErrUnsupported, a.Col)
			}
		}
	}
	return c.shardWhereDML(meta, info, s.Where, query)
}

func (c *Client) shardDelete(s *sql.Delete, query string) (*Result, error) {
	meta, info, err := c.shardTable(s.Table)
	if err != nil {
		return nil, err
	}
	return c.shardWhereDML(meta, info, s.Where, query)
}

func (c *Client) shardWhereDML(meta *tableMeta, info *shardInfo, where []sql.Predicate, query string) (*Result, error) {
	results, err := c.fanExec(c.routeGroups(meta, info, where), query)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, r := range results {
		res.Affected += r.Affected
	}
	return res, nil
}

// --- Fan-out scans (ORDER BY, aggregates, GROUP BY, join gathering) ---

// gatherScan runs one read-locked scan of a single group on behalf of the
// router: the same locking, predicate compilation, and pending-update
// overlay a plain per-group SELECT would get. cols are the columns the router
// will read (scanOpts.cols; schemas, hence indices, are identical in every
// group). epoch is the group's snapshot cap for reads inside a transaction,
// noEpoch otherwise.
func (sub *Client) gatherScan(table string, where []sql.Predicate, cols []int, verified bool, epoch uint64) (*scanResult, error) {
	if verified {
		sub.mu.Lock()
		defer sub.mu.Unlock()
	} else {
		unlock := sub.lockForRead()
		defer unlock()
	}
	meta, err := sub.table(table)
	if err != nil {
		return nil, err
	}
	preds, err := sub.compilePredicates(meta, where, "")
	if err != nil {
		return nil, err
	}
	o := sub.readOpts(cols, 0, verified)
	o.epoch = epoch
	return sub.scanTable(meta, preds, o)
}

// gatherScanExclusive is gatherScan under the exclusive statement lock with
// lazy updates flushed first — the per-group footing of statements that are
// exclusive on a single-group client (aggregates, GROUP BY, joins).
func (sub *Client) gatherScanExclusive(table string, where []sql.Predicate, cols []int, verified bool) (*scanResult, error) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if err := sub.flushTableLocked(table); err != nil {
		return nil, err
	}
	meta, err := sub.table(table)
	if err != nil {
		return nil, err
	}
	preds, err := sub.compilePredicates(meta, where, "")
	if err != nil {
		return nil, err
	}
	return sub.scanTable(meta, preds, sub.readOpts(cols, 0, verified))
}

// fanScan gathers one scan per target group concurrently.
func (c *Client) fanScan(table string, where []sql.Predicate, cols []int, targets []int, verified, exclusive bool) ([]*scanResult, error) {
	scans := make([]*scanResult, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, g := range targets {
		wg.Add(1)
		go func(i, g int) {
			defer wg.Done()
			var scan *scanResult
			var err error
			if exclusive {
				scan, err = c.shards[g].gatherScanExclusive(table, where, cols, verified)
			} else {
				scan, err = c.shards[g].gatherScan(table, where, cols, verified, noEpoch)
			}
			if err != nil {
				errs[i] = fmt.Errorf("shard group %d: %w", g, err)
				return
			}
			scans[i] = scan
		}(i, g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return scans, nil
}

// mergeScans concatenates per-group scans in target order. Faulty provider
// indices are remapped onto the flat global numbering (group*N + provider).
func (c *Client) mergeScans(scans []*scanResult, targets []int) *scanResult {
	out := &scanResult{verified: true}
	for i, s := range scans {
		out.ids = append(out.ids, s.ids...)
		out.values = append(out.values, s.values...)
		out.verified = out.verified && s.verified
		for _, p := range s.faulty {
			out.faulty = append(out.faulty, targets[i]*c.opts.N+p)
		}
	}
	sort.Ints(out.faulty)
	return out
}

// --- Routed maintenance and introspection ---

// shardFlush pushes buffered lazy updates in every group.
func (c *Client) shardFlush() error {
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for g, sub := range c.shards {
		wg.Add(1)
		go func(g int, sub *Client) {
			defer wg.Done()
			if err := sub.Flush(); err != nil {
				errs[g] = fmt.Errorf("shard group %d: %w", g, err)
			}
		}(g, sub)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// shardAudit audits one table in every group and merges the reports,
// remapping faulty providers onto the flat global numbering.
func (c *Client) shardAudit(table string) (*AuditReport, error) {
	reports := make([]*AuditReport, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for g, sub := range c.shards {
		wg.Add(1)
		go func(g int, sub *Client) {
			defer wg.Done()
			rep, err := sub.Audit(table)
			if err != nil {
				errs[g] = fmt.Errorf("shard group %d: %w", g, err)
				return
			}
			reports[g] = rep
		}(g, sub)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := &AuditReport{Table: table}
	for g, rep := range reports {
		out.Rows += rep.Rows
		for _, p := range rep.Faulty {
			out.Faulty = append(out.Faulty, g*c.opts.N+p)
		}
	}
	sort.Ints(out.Faulty)
	return out, nil
}
