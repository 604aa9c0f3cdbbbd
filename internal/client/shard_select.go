package client

// Scatter-gather SELECT execution for the shard router (see shard.go).
// Single-target statements delegate raw to the owning group and inherit the
// single-group plan wholesale. Multi-target statements fan out in parallel
// and merge client-side: plain scans concatenate (LIMIT re-applied at the
// router — each group already received it as a superset bound), ORDER BY
// sorts the merged scan, aggregates combine per-group partials (SUM/COUNT
// merge, MIN/MAX compare, AVG from merged sum and count, MEDIAN from
// gathered values), GROUP BY re-reduces per-group buckets by group key, and
// joins hash-join the merged sides at the client.

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"sssdb/internal/sql"
)

func (c *Client) shardSelect(s *sql.Select, query string) (*Result, error) {
	if s.Join != nil {
		return c.shardJoin(s)
	}
	meta, info, err := c.shardTable(s.Table)
	if err != nil {
		return nil, err
	}
	targets := c.routeGroups(meta, info, s.Where)
	if len(targets) == 1 {
		return c.shards[targets[0]].Exec(query)
	}
	if s.GroupBy != nil {
		return c.shardGroupBy(meta, s, targets)
	}
	hasAgg := false
	for _, item := range s.Items {
		if item.Agg != sql.AggNone {
			hasAgg = true
		}
	}
	if hasAgg {
		for _, item := range s.Items {
			if item.Agg == sql.AggNone {
				return nil, fmt.Errorf("%w: mixing aggregates and plain columns", ErrUnsupported)
			}
		}
		return c.shardAggregates(meta, s, targets)
	}
	if s.OrderBy == nil {
		// Plain scatter: every group runs the identical statement (limit
		// included — a per-group superset) and rows concatenate in group
		// order. Cross-group row order is unspecified, like scan order.
		results, err := c.fanExec(targets, query)
		if err != nil {
			return nil, err
		}
		res := &Result{Columns: results[0].Columns, Verified: true}
		for _, r := range results {
			res.Rows = append(res.Rows, r.Rows...)
			res.Verified = res.Verified && r.Verified
		}
		if s.Limit > 0 && uint64(len(res.Rows)) > s.Limit {
			res.Rows = res.Rows[:s.Limit]
		}
		return res, nil
	}
	// ORDER BY: gather full per-group scans, sort the merged result. Ties
	// between equal sort keys from different groups are broken by each
	// group's private row ids, so cross-group tie order is unspecified.
	cols, idx, err := selectColumns(meta, s.Items)
	if err != nil {
		return nil, err
	}
	oci, err := orderColumn(meta, s.OrderBy)
	if err != nil {
		return nil, err
	}
	verified := s.Verified || c.opts.Verified
	scans, err := c.fanScan(s.Table, s.Where, append(slices.Clip(idx), oci), targets, verified, verified)
	if err != nil {
		return nil, err
	}
	merged := c.mergeScans(scans, targets)
	if err := orderScan(meta, merged, oci, s.OrderBy.Desc, s.Limit); err != nil {
		return nil, err
	}
	return projectScan(cols, idx, merged), nil
}

// --- Aggregates ---

// shardAggPartial is one group's contribution to a scatter-gathered
// aggregate statement.
type shardAggPartial struct {
	// count is the group's matching-row count.
	count uint64
	// sums[i] is the group's (scaled) SUM total for SUM/AVG item i.
	sums []int64
	// extremes[i] is the group's own MIN/MAX value for item i (count > 0).
	extremes []Value
}

// shardAggPartials computes a group's partials provider-side under the
// exclusive per-group lock, mirroring the single-group remote path: COUNT
// exact, SUM via share additivity, MIN/MAX via order preservation.
func (sub *Client) shardAggPartials(table string, s *sql.Select) (*shardAggPartial, error) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if err := sub.flushTableLocked(table); err != nil {
		return nil, err
	}
	meta, err := sub.table(table)
	if err != nil {
		return nil, err
	}
	preds, err := sub.compilePredicates(meta, s.Where, "")
	if err != nil {
		return nil, err
	}
	p := &shardAggPartial{
		sums:     make([]int64, len(s.Items)),
		extremes: make([]Value, len(s.Items)),
	}
	countItem := sql.SelectItem{Star: true, Agg: sql.AggCount}
	v, err := sub.aggregateRemote(meta, preds, countItem)
	if err != nil {
		return nil, err
	}
	p.count = uint64(v.I)
	if p.count == 0 {
		return p, nil
	}
	for i, item := range s.Items {
		switch item.Agg {
		case sql.AggCount:
			// Identical to the matching-row count already fetched.
		case sql.AggSum, sql.AggAvg:
			// AVG needs the group's SUM, not its average: divide only after
			// the merge, by the merged count.
			sumItem := item
			sumItem.Agg = sql.AggSum
			v, err := sub.aggregateRemote(meta, preds, sumItem)
			if err != nil {
				return nil, err
			}
			p.sums[i] = v.I
		case sql.AggMin, sql.AggMax:
			v, err := sub.aggregateRemote(meta, preds, item)
			if err != nil {
				return nil, err
			}
			p.extremes[i] = v
		default:
			return nil, fmt.Errorf("%w: aggregate %v", ErrUnsupported, item.Agg)
		}
	}
	return p, nil
}

func (c *Client) shardAggregates(meta *tableMeta, s *sql.Select, targets []int) (*Result, error) {
	verified := s.Verified || c.opts.Verified
	// Mirror the single-group provider/client decision (predicates compile
	// identically in every group — same schemes, same metadata).
	preds, err := c.shards[0].compilePredicates(meta, s.Where, "")
	if err != nil {
		return nil, err
	}
	clientSide := len(preds) > 1 || verified || c.forceClientAgg ||
		(len(preds) == 1 && preds[0].set != nil)
	needScan := clientSide
	for _, item := range s.Items {
		cm, _, err := meta.aggItemCol(item)
		if err != nil {
			return nil, err
		}
		if (item.Agg == sql.AggSum || item.Agg == sql.AggAvg) && cm != nil && cm.Type == sql.TypeVarchar {
			return nil, fmt.Errorf("%w: %s over VARCHAR column %q", ErrUnsupported, item.Agg, cm.Name)
		}
		if item.Agg == sql.AggMedian {
			// A median cannot be combined from per-group medians; gather the
			// matching rows instead.
			needScan = true
		}
	}

	res := &Result{}
	for _, item := range s.Items {
		name := item.Agg.String() + "(" + item.Col.Name + ")"
		if item.Star {
			name = item.Agg.String() + "(*)"
		}
		res.Columns = append(res.Columns, name)
	}
	row := make([]Value, 0, len(s.Items))

	if needScan {
		cols, err := aggCols(meta, s.Items)
		if err != nil {
			return nil, err
		}
		scans, err := c.fanScan(s.Table, s.Where, cols, targets, verified, true)
		if err != nil {
			return nil, err
		}
		merged := c.mergeScans(scans, targets)
		res.Verified = verified && merged.verified
		for _, item := range s.Items {
			v, err := c.shards[0].aggregateLocal(meta, merged, item)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		res.Rows = [][]Value{row}
		return res, nil
	}

	parts := make([]*shardAggPartial, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, g := range targets {
		wg.Add(1)
		go func(i, g int) {
			defer wg.Done()
			part, err := c.shards[g].shardAggPartials(s.Table, s)
			if err != nil {
				errs[i] = fmt.Errorf("shard group %d: %w", g, err)
				return
			}
			parts[i] = part
		}(i, g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var totalCount uint64
	for _, p := range parts {
		totalCount += p.count
	}
	for i, item := range s.Items {
		cm, _, err := meta.aggItemCol(item)
		if err != nil {
			return nil, err
		}
		switch item.Agg {
		case sql.AggCount:
			row = append(row, IntValue(int64(totalCount)))
		case sql.AggSum, sql.AggAvg:
			if totalCount == 0 {
				v, err := emptyAggValue(item, cm)
				if err != nil {
					return nil, err
				}
				row = append(row, v)
				continue
			}
			var total int64
			for _, p := range parts {
				total += p.sums[i]
			}
			if item.Agg == sql.AggAvg {
				total /= int64(totalCount)
			}
			if cm.Type == sql.TypeDecimal {
				row = append(row, DecimalValue(total, cm.Arg))
			} else {
				row = append(row, IntValue(total))
			}
		case sql.AggMin, sql.AggMax:
			if totalCount == 0 {
				v, err := emptyAggValue(item, cm)
				if err != nil {
					return nil, err
				}
				row = append(row, v)
				continue
			}
			var best Value
			var bestEnc uint64
			have := false
			for _, p := range parts {
				if p.count == 0 {
					continue
				}
				enc, err := cm.encode(p.extremes[i])
				if err != nil {
					return nil, err
				}
				better := !have || (item.Agg == sql.AggMin && enc < bestEnc) ||
					(item.Agg == sql.AggMax && enc > bestEnc)
				if better {
					best, bestEnc, have = p.extremes[i], enc, true
				}
			}
			row = append(row, best)
		default:
			return nil, fmt.Errorf("%w: aggregate %v", ErrUnsupported, item.Agg)
		}
	}
	res.Rows = [][]Value{row}
	return res, nil
}

// --- GROUP BY ---

// shardGroupRemote computes one group's GROUP BY partials provider-side
// under its exclusive lock (COUNT/SUM per bucket, mergeable at the router).
func (sub *Client) shardGroupRemote(table string, where []sql.Predicate, groupCol string, items []sql.SelectItem) ([]*group, error) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if err := sub.flushTableLocked(table); err != nil {
		return nil, err
	}
	meta, err := sub.table(table)
	if err != nil {
		return nil, err
	}
	gcm, err := meta.col(groupCol)
	if err != nil {
		return nil, err
	}
	preds, err := sub.compilePredicates(meta, where, "")
	if err != nil {
		return nil, err
	}
	return sub.groupedRemote(meta, gcm, preds, items)
}

func (c *Client) shardGroupBy(meta *tableMeta, s *sql.Select, targets []int) (*Result, error) {
	gcm, gci, computeItems, simpleOnly, err := planGroupBy(meta, s)
	if err != nil {
		return nil, err
	}
	preds, err := c.shards[0].compilePredicates(meta, s.Where, "")
	if err != nil {
		return nil, err
	}
	verified := s.Verified || c.opts.Verified
	useProvider := simpleOnly && len(preds) <= 1 && !verified && !c.forceClientAgg &&
		!(len(preds) == 1 && preds[0].set != nil)

	var groups []*group
	if useProvider {
		parts := make([][]*group, len(targets))
		errs := make([]error, len(targets))
		var wg sync.WaitGroup
		for i, g := range targets {
			wg.Add(1)
			go func(i, g int) {
				defer wg.Done()
				part, err := c.shards[g].shardGroupRemote(s.Table, s.Where, s.GroupBy.Name, computeItems)
				if err != nil {
					errs[i] = fmt.Errorf("shard group %d: %w", g, err)
					return
				}
				parts[i] = part
			}(i, g)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		// Re-reduce: buckets with the same key merge their counts and sums;
		// the merged bucket list sorts by encoded key, matching the
		// single-group key order (share order = value order).
		byKey := make(map[uint64]*group)
		var order []uint64
		for _, part := range parts {
			for _, g := range part {
				enc, err := gcm.encode(g.key)
				if err != nil {
					return nil, err
				}
				m, ok := byKey[enc]
				if !ok {
					byKey[enc] = g
					order = append(order, enc)
					continue
				}
				m.count += g.count
				for name, v := range g.sums {
					m.sums[name] += v
				}
			}
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		groups = make([]*group, 0, len(order))
		for _, enc := range order {
			groups = append(groups, byKey[enc])
		}
	} else {
		cols, err := aggCols(meta, computeItems)
		if err != nil {
			return nil, err
		}
		scans, err := c.fanScan(s.Table, s.Where, append(cols, gci), targets, verified, true)
		if err != nil {
			return nil, err
		}
		merged := c.mergeScans(scans, targets)
		groups, err = c.shards[0].groupedFromScan(meta, gcm, gci, merged, computeItems)
		if err != nil {
			return nil, err
		}
	}
	return c.renderGroups(meta, s, groups, verified && !useProvider)
}

// --- Joins ---

func (c *Client) shardJoin(s *sql.Select) (*Result, error) {
	left, infoL, err := c.shardTable(s.Table)
	if err != nil {
		return nil, err
	}
	right, infoR, err := c.shardTable(s.Join.Table)
	if err != nil {
		return nil, err
	}
	if left.Name == right.Name {
		return nil, fmt.Errorf("%w: self joins", ErrUnsupported)
	}
	if s.GroupBy != nil {
		return nil, fmt.Errorf("%w: GROUP BY over joins", ErrUnsupported)
	}
	if s.OrderBy != nil {
		return nil, fmt.Errorf("%w: ORDER BY over joins", ErrUnsupported)
	}
	for _, item := range s.Items {
		if item.Agg != sql.AggNone {
			return nil, fmt.Errorf("%w: aggregates over joins", ErrUnsupported)
		}
	}
	lcName, rcName, err := resolveOn(left.Name, right.Name, s.Join)
	if err != nil {
		return nil, err
	}
	lc, err := left.col(lcName)
	if err != nil {
		return nil, err
	}
	rc, err := right.col(rcName)
	if err != nil {
		return nil, err
	}
	if !lc.queryable() || !rc.queryable() {
		return nil, fmt.Errorf("%w: join on BLOB columns", ErrUnsupported)
	}
	items, err := resolveJoinItems(left, right, s.Items)
	if err != nil {
		return nil, err
	}
	var leftPreds, rightPreds []sql.Predicate
	for _, p := range s.Where {
		side, err := predicateSide(left, right, p)
		if err != nil {
			return nil, err
		}
		if side == 0 {
			leftPreds = append(leftPreds, p)
		} else {
			rightPreds = append(rightPreds, p)
		}
	}
	// A join's sides live in (potentially different) group subsets, so the
	// provider-side share-equality join cannot run across groups: gather
	// each side from its routed groups and hash-join at the client.
	targetsL := c.routeGroups(left, infoL, leftPreds)
	targetsR := c.routeGroups(right, infoR, rightPreds)
	lci, rci := left.colIndex(lcName), right.colIndex(rcName)
	lScans, err := c.fanJoinScans(left.Name, leftPreds, append(joinSideCols(items, true), lci), targetsL)
	if err != nil {
		return nil, err
	}
	rScans, err := c.fanJoinScans(right.Name, rightPreds, append(joinSideCols(items, false), rci), targetsR)
	if err != nil {
		return nil, err
	}
	lScan := c.mergeScans(lScans, targetsL)
	rScan := c.mergeScans(rScans, targetsR)
	return joinFromScans(lci, rci, items, lScan, rScan), nil
}

// fanJoinScans gathers one side of a join from its target groups, under
// each group's exclusive lock with that table's lazy updates flushed
// (matching the single-group join's footing). Predicates may be qualified
// with the table's own name.
func (c *Client) fanJoinScans(table string, preds []sql.Predicate, cols []int, targets []int) ([]*scanResult, error) {
	scans := make([]*scanResult, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, g := range targets {
		wg.Add(1)
		go func(i, g int) {
			defer wg.Done()
			sub := c.shards[g]
			scan, err := func() (*scanResult, error) {
				sub.mu.Lock()
				defer sub.mu.Unlock()
				if err := sub.flushTableLocked(table); err != nil {
					return nil, err
				}
				meta, err := sub.table(table)
				if err != nil {
					return nil, err
				}
				cp, err := sub.compilePredicates(meta, preds, table)
				if err != nil {
					return nil, err
				}
				return sub.scanTable(meta, cp, sub.readOpts(cols, 0, false))
			}()
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

// --- EXPLAIN ---

func (c *Client) shardExplain(e *sql.Explain, query string) (*Result, error) {
	res := &Result{Columns: []string{"plan"}}
	line := func(format string, args ...any) {
		res.Rows = append(res.Rows, []Value{StringValue(fmt.Sprintf(format, args...))})
	}
	var table string
	var where []sql.Predicate
	switch s := e.Stmt.(type) {
	case *sql.Select:
		if s.Join != nil {
			if _, _, err := c.shardTable(s.Table); err != nil {
				return nil, err
			}
			if _, _, err := c.shardTable(s.Join.Table); err != nil {
				return nil, err
			}
			line("SHARD JOIN %s ⋈ %s: gather both sides from their routed groups; hash-join at the client",
				s.Table, s.Join.Table)
			return res, nil
		}
		table, where = s.Table, s.Where
	case *sql.Update:
		table, where = s.Table, s.Where
	case *sql.Delete:
		table, where = s.Table, s.Where
	}
	meta, info, err := c.shardTable(table)
	if err != nil {
		return nil, err
	}
	targets := c.routeGroups(meta, info, where)
	switch {
	case info.column == "":
		line("SHARD %s: rows hash-partitioned on insert sequence across %d groups — scatter-gather",
			meta.Name, len(c.shards))
	case len(targets) == 1:
		line("SHARD %s: point predicate on shard key %q routes to group %d of %d",
			meta.Name, info.column, targets[0], len(c.shards))
	case len(targets) < len(c.shards):
		line("SHARD %s: IN predicate on shard key %q routes to %d of %d groups",
			meta.Name, info.column, len(targets), len(c.shards))
	default:
		line("SHARD %s: hash-partitioned on %q; no point predicate — scatter-gather across %d groups",
			meta.Name, info.column, len(c.shards))
	}
	// The per-group plan is identical in every group; show group 0's.
	sub, err := c.shards[targets[0]].Exec(query)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, sub.Rows...)
	return res, nil
}

// --- QueryRows ---

// shardQueryRows opens one per-group iterator per routed group and merges
// them: rows stream group by group, a global LIMIT is enforced at the
// router, and satisfying it (or Close) cancels the undrained group streams.
func (c *Client) shardQueryRows(query string) (*Rows, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	s, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("%w: QueryRows wants a SELECT, got %T", ErrUnsupported, stmt)
	}
	if c.shardSelectMaterializes(s) {
		res, err := c.shardSelect(s, query)
		if err != nil {
			return nil, err
		}
		return materializedRows(res), nil
	}
	meta, info, err := c.shardTable(s.Table)
	if err != nil {
		return nil, err
	}
	targets := c.routeGroups(meta, info, s.Where)
	if len(targets) == 1 {
		return c.shards[targets[0]].QueryRows(query)
	}
	subRows := make([]*Rows, 0, len(targets))
	for _, g := range targets {
		r, err := c.shards[g].QueryRows(query)
		if err != nil {
			for _, open := range subRows {
				open.Close()
			}
			return nil, fmt.Errorf("shard group %d: %w", g, err)
		}
		subRows = append(subRows, r)
	}
	return &Rows{
		cols:      subRows[0].cols,
		subRows:   subRows,
		subGroups: targets,
		remaining: s.Limit,
		hasLimit:  s.Limit > 0,
	}, nil
}

// shardSelectMaterializes reports whether a routed SELECT has a shape the
// router must execute eagerly (merging partials or sorting) rather than by
// draining per-group row iterators.
func (c *Client) shardSelectMaterializes(s *sql.Select) bool {
	if s.Join != nil || s.GroupBy != nil || s.OrderBy != nil || s.Verified || c.opts.Verified {
		return true
	}
	for _, item := range s.Items {
		if item.Agg != sql.AggNone {
			return true
		}
	}
	return false
}
