package client

import (
	"fmt"
	"strings"

	"sssdb/internal/sql"
)

// fetchLine renders the provider cells a read ships per row, out of those
// the table stores per row.
func fetchLine(meta *tableMeta, plan fetchPlan) string {
	names := strings.Join(plan.names, ", ")
	if plan.idsOnly() {
		names = "row ids only"
	}
	return fmt.Sprintf("fetch %s — %d of %d cells", names, len(plan.names), len(meta.providerSpec().Columns))
}

// execExplain describes how a statement would execute without running it,
// from the same plan execution runs: which groups it routes to, which
// predicate is rewritten into a per-provider share filter, what stays
// client-side, which cells each provider ships, where aggregates and joins
// run, and how many providers of a group are consulted. For UPDATE and DELETE
// it describes the read round that finds the affected rows. The output is one
// plan line per row (column "plan").
func (c *Client) execExplain(e *sql.Explain) (*Result, error) {
	res := &Result{Columns: []string{"plan"}}
	line := func(format string, args ...any) {
		res.Rows = append(res.Rows, []Value{StringValue(fmt.Sprintf(format, args...))})
	}
	// routing says where a table's rows are read; with one group there is
	// nothing to say.
	routing := func(meta *tableMeta, targets []int) {
		switch g := len(c.groups); {
		case g == 1:
		case meta.shardCol < 0:
			line("SHARD %s: rows hash-partitioned on insert sequence across %d groups — scatter-gather", meta.Name, g)
		case len(targets) == 1:
			line("SHARD %s: point predicate on shard key %q routes to group %d of %d",
				meta.Name, meta.Cols[meta.shardCol].Name, targets[0], g)
		case len(targets) < g:
			line("SHARD %s: IN predicate on shard key %q routes to %d of %d groups",
				meta.Name, meta.Cols[meta.shardCol].Name, len(targets), g)
		default:
			line("SHARD %s: hash-partitioned on %q; no point predicate — scatter-gather across %d groups",
				meta.Name, meta.Cols[meta.shardCol].Name, g)
		}
	}
	var s *sql.Select
	var dml string
	switch st := e.Stmt.(type) {
	case *sql.Select:
		s = st
	case *sql.Update:
		// Whole rows are re-shared, so the read round fetches every column.
		dml = fmt.Sprintf("UPDATE %s: reconstruct the matching rows, re-share them, send to all %d providers", st.Table, c.opts.N)
		s = &sql.Select{Table: st.Table, Where: st.Where, Items: []sql.SelectItem{{Star: true}}}
	case *sql.Delete:
		dml = fmt.Sprintf("DELETE %s: find the matching row ids, send them to all %d providers", st.Table, c.opts.N)
		s = &sql.Select{Table: st.Table, Where: st.Where}
	default:
		return nil, fmt.Errorf("%w: EXPLAIN %T", ErrUnsupported, e.Stmt)
	}

	if s.Join != nil {
		j, err := c.planJoin(s)
		if err != nil {
			return nil, err
		}
		left, right := j.left.meta, j.right.meta
		routing(left, j.left.targets)
		routing(right, j.right.targets)
		lCols, rCols := j.left.fetch, j.right.fetch
		if j.why == "" {
			line("JOIN %s ⋈ %s ON %s = %s: provider-side share-equality hash join (same domain %q)",
				left.Name, right.Name, j.lc.Name, j.rc.Name, j.lc.domain)
			line("  send JoinRequest to %d of %d providers; reconstruct pairs from aligned responses", c.opts.K, c.opts.N)
			// The providers match the keys themselves; only the select list
			// is shipped.
			lCols, rCols = joinSideCols(j.items, true), joinSideCols(j.items, false)
		} else {
			line("JOIN %s ⋈ %s: CLIENT-SIDE fallback — %s", left.Name, right.Name, j.why)
			line("  scan both tables, reconstruct, hash-join locally on typed values")
		}
		line("  %s: %s", left.Name, fetchLine(left, left.fetchPlan(lCols)))
		line("  %s: %s", right.Name, fetchLine(right, right.fetchPlan(rCols)))
		if len(s.Where) > 0 {
			line("WHERE: %d conjunct(s); left-side leading predicate pushed when provider-side", len(s.Where))
		}
		return res, nil
	}

	p, err := c.planSelect(s, nil)
	if err != nil {
		return nil, err
	}
	meta, preds := p.meta, p.preds
	routing(meta, p.targets)
	if dml != "" {
		line("%s", dml)
	}
	quorum := c.opts.K
	if p.verified {
		quorum = c.opts.N
	}
	// describeScan explains the scan a routed group runs for the plan.
	describeScan := func() {
		switch {
		case len(preds) == 0:
			line("SCAN %s: full table from %d of %d providers", meta.Name, quorum, c.opts.N)
		default:
			cp := preds[0]
			cm := &meta.Cols[cp.ci]
			if cp.empty {
				line("SCAN %s: predicate on %q is provably empty — no provider contacted", meta.Name, cm.Name)
				return
			}
			kind := "share-range"
			if cp.lo == cp.hi {
				kind = "share-equality"
			}
			if cp.set != nil {
				kind = fmt.Sprintf("covering share-range for IN(%d members)", len(cp.set))
			}
			line("SCAN %s: push %s filter on %q#o (indexed) to %d of %d providers",
				meta.Name, kind, cm.Name, quorum, c.opts.N)
			if residual := len(residualPreds(preds)); residual > 0 {
				line("  %d residual predicate(s) evaluated client-side after reconstruction", residual)
			}
		}
		line("  %s", fetchLine(meta, meta.scanPlan(preds, p.fetch, p.verified)))
		if p.verified {
			line("  VERIFIED: Merkle completeness proof per provider + robust reconstruction over all %d", c.opts.N)
		}
	}

	switch {
	case p.bucketed():
		what := "AGGREGATE"
		if p.gcm != nil {
			what = "GROUP BY " + p.gcm.Name
		}
		if p.onProviders {
			line("%s: provider-side partials from %d of %d providers", what, c.opts.K, c.opts.N)
			line("  SUM/AVG via share additivity; MIN/MAX/MEDIAN via order preservation; COUNT exact")
			if len(preds) == 1 {
				line("  filter on %q pushed in share space", meta.Cols[preds[0].ci].Name)
			}
			if p.gcm != nil {
				line("  buckets align positionally across providers (share order = value order); keys inverted from a single share")
			}
			if len(p.targets) > 1 {
				line("  buckets of the %d groups re-reduced by key: counts and sums add, MIN/MAX compare", len(p.targets))
			}
		} else {
			line("%s: CLIENT-SIDE — scan, reconstruct, bucket locally", what)
			describeScan()
		}
		if len(s.Having) > 0 {
			line("HAVING: %d conjunct(s) applied to reconstructed group aggregates", len(s.Having))
		}
	default:
		describeScan()
		if s.OrderBy != nil {
			dir := "ASC"
			if s.OrderBy.Desc {
				dir = "DESC"
			}
			line("ORDER BY %s %s: client-side sort on encoded values", s.OrderBy.Col.Name, dir)
		}
		if s.Limit > 0 {
			// Buffered lazy updates are the one thing the plan depends on
			// beyond the catalog; look under the read's own locks.
			unlock, err := c.lock(p.targets, false, meta)
			if err != nil {
				return nil, err
			}
			pending := false
			for _, g := range p.targets {
				pending = pending || c.groups[g].hasPending(meta.Name)
			}
			unlock()
			where := "pushed to providers"
			switch {
			case p.verified:
				where = "applied client-side (a completeness proof covers the whole range)"
			case len(residualPreds(preds)) > 0 || s.OrderBy != nil || pending:
				where = "applied client-side (residuals/order/pending overlay)"
			}
			line("LIMIT %d: %s", s.Limit, where)
		}
	}
	return res, nil
}
