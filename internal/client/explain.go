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

// execExplain describes how a statement would execute without running it.
// It renders the plan execution runs — selectPlan, joinPlan, or a write and
// its read round — and decides nothing itself: which groups the statement
// routes to and why, which predicate is rewritten into a per-provider share
// filter, what stays client-side, which cells each provider ships, where
// aggregates, joins and LIMIT run, how many providers of a group are asked,
// and whether an UPDATE is sent or buffered. The output is one plan line per
// row (column "plan").
func (c *Client) execExplain(e *sql.Explain) (*Result, error) {
	res := &Result{Columns: []string{"plan"}}
	line := func(format string, args ...any) {
		res.Rows = append(res.Rows, []Value{StringValue(fmt.Sprintf(format, args...))})
	}
	// routing says where a plan's rows are read; with one group there is
	// nothing to say.
	routing := func(p *selectPlan) {
		meta := p.meta
		switch g := len(c.groups); {
		case g == 1:
		case meta.shardCol < 0:
			line("SHARD %s: rows hash-partitioned on insert sequence across %d groups — scatter-gather", meta.Name, g)
		case p.route == sql.OpEq:
			line("SHARD %s: point predicate on shard key %q routes to group %d of %d",
				meta.Name, meta.Cols[meta.shardCol].Name, p.targets[0], g)
		case p.route == sql.OpIn:
			line("SHARD %s: IN predicate on shard key %q routes to %d of %d groups",
				meta.Name, meta.Cols[meta.shardCol].Name, len(p.targets), g)
		default:
			line("SHARD %s: hash-partitioned on %q; no point predicate — scatter-gather across %d groups",
				meta.Name, meta.Cols[meta.shardCol].Name, g)
		}
	}
	// describeScan explains the scan a routed group runs for the plan.
	describeScan := func(p *selectPlan) {
		meta, quorum := p.meta, c.opts.readQuorum(p.verified)
		if len(p.preds) == 0 {
			line("SCAN %s: full table from %d of %d providers", meta.Name, quorum, c.opts.N)
		} else {
			cp := p.preds[0]
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
			if residual := len(p.residual()); residual > 0 {
				line("  %d residual predicate(s) evaluated client-side after reconstruction", residual)
			}
		}
		line("  %s", fetchLine(meta, p.shipped()))
		if p.verified {
			line("  VERIFIED: Merkle completeness proof per provider + robust reconstruction over all %d", quorum)
		}
	}

	var s *sql.Select
	switch st := e.Stmt.(type) {
	case *sql.Select:
		s = st
	case *sql.Update, *sql.Delete:
		w, err := c.resolveWrite(st, nil, true)
		if err != nil {
			return nil, err
		}
		routing(w.read)
		switch name := w.meta.Name; {
		case w.kind == writeDelete:
			line("DELETE %s: find the matching row ids, send them to all %d providers", name, c.opts.N)
		case w.lazy:
			line("UPDATE %s: reconstruct the matching rows, buffer them until Flush re-shares them to all %d providers", name, c.opts.N)
		default:
			line("UPDATE %s: reconstruct the matching rows, re-share them, send to all %d providers", name, c.opts.N)
		}
		describeScan(w.read)
		return res, nil
	default:
		return nil, fmt.Errorf("%w: EXPLAIN %T", ErrUnsupported, e.Stmt)
	}

	if s.Join != nil {
		j, err := c.planJoin(s)
		if err != nil {
			return nil, err
		}
		left, right := j.left.meta, j.right.meta
		routing(j.left)
		routing(j.right)
		if j.why == "" {
			line("JOIN %s ⋈ %s ON %s = %s: provider-side share-equality index join (same domain %q)",
				left.Name, right.Name, j.lc.Name, j.rc.Name, j.lc.domain)
			line("  send JoinRequest to %d of %d providers: each walks %s and looks each row up in %s's %q#o index, streaming the pairs; reconstruct pairs from aligned responses",
				c.opts.readQuorum(false), c.opts.N, left.Name, right.Name, j.rc.Name)
		} else {
			line("JOIN %s ⋈ %s: CLIENT-SIDE fallback — %s", left.Name, right.Name, j.why)
			line("  scan both tables, reconstruct, hash-join locally on typed values")
		}
		line("  %s: %s", left.Name, fetchLine(left, j.shipped(j.left)))
		line("  %s: %s", right.Name, fetchLine(right, j.shipped(j.right)))
		if len(s.Where) > 0 {
			line("WHERE: %d conjunct(s); left-side leading predicate pushed when provider-side", len(s.Where))
		}
		switch {
		case j.limit == 0:
		case j.why == "":
			line("LIMIT %d: pushed to providers (each stops after %d pairs)", j.limit, j.limit)
		default:
			line("LIMIT %d: applied client-side to the locally joined pairs", j.limit)
		}
		return res, nil
	}

	p, err := c.planSelect(s, nil)
	if err != nil {
		return nil, err
	}
	routing(p)
	switch {
	case p.bucketed():
		what := "AGGREGATE"
		if p.gcm != nil {
			what = "GROUP BY " + p.gcm.Name
		}
		if p.onProviders {
			line("%s: provider-side partials from %d of %d providers", what, c.opts.readQuorum(false), c.opts.N)
			line("  SUM/AVG via share additivity; MIN/MAX/MEDIAN via order preservation; COUNT exact")
			if len(p.preds) == 1 {
				line("  filter on %q pushed in share space", p.meta.Cols[p.preds[0].ci].Name)
			}
			if p.gcm != nil {
				line("  buckets align positionally across providers (share order = value order); keys inverted from a single share")
			}
			if len(p.targets) > 1 {
				line("  buckets of the %d groups re-reduced by key: counts and sums add, MIN/MAX compare", len(p.targets))
			}
		} else {
			line("%s: CLIENT-SIDE — scan, reconstruct, bucket locally", what)
			describeScan(p)
		}
		if len(s.Having) > 0 {
			line("HAVING: %d conjunct(s) applied to reconstructed group aggregates", len(s.Having))
		}
		if s.Limit > 0 {
			line("LIMIT %d: applied client-side to the buckets in key order, after HAVING", s.Limit)
		}
	default:
		describeScan(p)
		if s.OrderBy != nil {
			dir := "ASC"
			if s.OrderBy.Desc {
				dir = "DESC"
			}
			line("ORDER BY %s %s: client-side sort on encoded values", s.OrderBy.Col.Name, dir)
		}
		if p.limit > 0 {
			why, err := c.limitWhy(p)
			if err != nil {
				return nil, err
			}
			if why == "" {
				line("LIMIT %d: pushed to providers", p.limit)
			} else {
				line("LIMIT %d: applied client-side (%s)", p.limit, why)
			}
		}
	}
	return res, nil
}
