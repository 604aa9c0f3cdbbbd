package client

import (
	"fmt"
	"strings"

	"sssdb/internal/sql"
)

// fetchLine renders the provider cells a read ships per row, out of those
// the table stores per row.
func fetchLine(meta *tableMeta, plan fetchPlan) string {
	return fmt.Sprintf("fetch %s — %d of %d cells",
		strings.Join(plan.names, ", "), len(plan.names), len(meta.providerSpec().Columns))
}

// execExplain describes how a statement would execute without running it:
// which predicate is rewritten into a per-provider share filter, what stays
// client-side, which cells each provider ships, where aggregates and joins
// run, and how many providers are consulted. For UPDATE and DELETE it
// describes the read round that finds the affected rows. The output is one
// plan line per row (column "plan").
func (c *Client) execExplain(e *sql.Explain) (*Result, error) {
	res := &Result{Columns: []string{"plan"}}
	line := func(format string, args ...any) {
		res.Rows = append(res.Rows, []Value{StringValue(fmt.Sprintf(format, args...))})
	}
	var s *sql.Select
	switch st := e.Stmt.(type) {
	case *sql.Select:
		s = st
	case *sql.Update:
		// Whole rows are re-shared, so the read round fetches every column.
		line("UPDATE %s: reconstruct the matching rows, re-share them, send to all %d providers", st.Table, c.opts.N)
		s = &sql.Select{Table: st.Table, Where: st.Where, Items: []sql.SelectItem{{Star: true}}}
	case *sql.Delete:
		line("DELETE %s: find the matching row ids, send them to all %d providers", st.Table, c.opts.N)
		s = &sql.Select{Table: st.Table, Where: st.Where}
	default:
		return nil, fmt.Errorf("%w: EXPLAIN %T", ErrUnsupported, e.Stmt)
	}
	verified := s.Verified || c.opts.Verified
	quorum := c.opts.K
	if verified {
		quorum = c.opts.N
	}

	if s.Join != nil {
		left, err := c.table(s.Table)
		if err != nil {
			return nil, err
		}
		right, err := c.table(s.Join.Table)
		if err != nil {
			return nil, err
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
		var rightPreds int
		for _, p := range s.Where {
			side, err := predicateSide(left, right, p)
			if err != nil {
				return nil, err
			}
			if side == 1 {
				rightPreds++
			}
		}
		items, err := resolveJoinItems(left, right, s.Items)
		if err != nil {
			return nil, err
		}
		lCols, rCols := joinSideCols(items, true), joinSideCols(items, false)
		if lc.domain == rc.domain && rightPreds == 0 {
			line("JOIN %s ⋈ %s ON %s = %s: provider-side share-equality hash join (same domain %q)",
				left.Name, right.Name, lcName, rcName, lc.domain)
			line("  send JoinRequest to %d of %d providers; reconstruct pairs from aligned responses", c.opts.K, c.opts.N)
		} else {
			lCols = append(lCols, left.colIndex(lcName))
			rCols = append(rCols, right.colIndex(rcName))
			reason := fmt.Sprintf("domains differ (%q vs %q)", lc.domain, rc.domain)
			if rightPreds > 0 {
				reason = fmt.Sprintf("%d predicate(s) on the right side", rightPreds)
			}
			line("JOIN %s ⋈ %s: CLIENT-SIDE fallback — %s", left.Name, right.Name, reason)
			line("  scan both tables, reconstruct, hash-join locally on typed values")
		}
		line("  %s: %s", left.Name, fetchLine(left, left.fetchPlan(lCols)))
		line("  %s: %s", right.Name, fetchLine(right, right.fetchPlan(rCols)))
		if len(s.Where) > 0 {
			line("WHERE: %d conjunct(s); left-side leading predicate pushed when provider-side", len(s.Where))
		}
		return res, nil
	}

	meta, err := c.table(s.Table)
	if err != nil {
		return nil, err
	}
	preds, err := c.compilePredicates(meta, s.Where, "")
	if err != nil {
		return nil, err
	}
	// describeScan explains a scan whose caller reads cols.
	describeScan := func(cols []int) {
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
			residual := len(preds) - 1
			if cp.set != nil {
				residual++ // IN membership re-checked client-side
			}
			if residual > 0 {
				line("  %d residual predicate(s) evaluated client-side after reconstruction", residual)
			}
		}
		line("  %s", fetchLine(meta, meta.scanPlan(preds, cols, verified)))
		if verified {
			line("  VERIFIED: Merkle completeness proof per provider + robust reconstruction over all %d", c.opts.N)
		}
	}

	hasAgg := false
	for _, item := range s.Items {
		if item.Agg != sql.AggNone {
			hasAgg = true
		}
	}
	switch {
	case s.GroupBy != nil:
		gcm, gci, computeItems, simpleOnly, err := planGroupBy(meta, s)
		if err != nil {
			return nil, err
		}
		if simpleOnly && len(preds) <= 1 && !verified && !c.forceClientAgg {
			line("GROUP BY %s: provider-side grouped partials (COUNT/SUM per share-group)", gcm.Name)
			line("  groups align positionally across providers (share order = value order)")
			line("  group keys inverted from a single share; sums reconstructed from %d partials", c.opts.K)
		} else {
			line("GROUP BY %s: CLIENT-SIDE — scan, reconstruct, group locally", gcm.Name)
			cols, err := aggCols(meta, computeItems)
			if err != nil {
				return nil, err
			}
			describeScan(append(cols, gci))
		}
		if len(s.Having) > 0 {
			line("HAVING: %d conjunct(s) applied to reconstructed group aggregates", len(s.Having))
		}
	case hasAgg:
		if len(preds) > 1 || verified || c.forceClientAgg {
			line("AGGREGATE: CLIENT-SIDE — scan, reconstruct, aggregate locally")
			cols, err := aggCols(meta, s.Items)
			if err != nil {
				return nil, err
			}
			describeScan(cols)
		} else {
			line("AGGREGATE: provider-side partials from %d of %d providers", c.opts.K, c.opts.N)
			line("  SUM/AVG via share additivity; MIN/MAX/MEDIAN via order preservation; COUNT exact")
			if len(preds) == 1 {
				cm := &meta.Cols[preds[0].ci]
				line("  filter on %q pushed in share space", cm.Name)
			}
		}
	default:
		_, cols, err := selectColumns(meta, s.Items)
		if err != nil {
			return nil, err
		}
		if s.OrderBy != nil {
			oci, err := orderColumn(meta, s.OrderBy)
			if err != nil {
				return nil, err
			}
			cols = append(cols, oci)
		}
		describeScan(cols)
		if s.OrderBy != nil {
			dir := "ASC"
			if s.OrderBy.Desc {
				dir = "DESC"
			}
			line("ORDER BY %s %s: client-side sort on encoded values", s.OrderBy.Col.Name, dir)
		}
		if s.Limit > 0 {
			where := "pushed to providers"
			if len(preds) > 1 || s.OrderBy != nil || c.hasPending(meta.Name) {
				where = "applied client-side (residuals/order/pending overlay)"
			}
			line("LIMIT %d: %s", s.Limit, where)
		}
	}
	return res, nil
}
