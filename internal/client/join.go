package client

import (
	"fmt"
	"slices"

	"sssdb/internal/proto"
	"sssdb/internal/sql"
)

// joinItem is one resolved output column of a join.
type joinItem struct {
	left bool
	ci   int
	name string
}

// joinPlan is an equijoin resolved against the catalog: each side planned
// like a single-table scan (where it routes, its compiled predicates, the
// columns a gathered scan of it reads), how the sides pair up, where the join
// runs, and what each side's providers ship (shipped).
type joinPlan struct {
	left, right *selectPlan
	// lc and rc are the ON columns, lci and rci their indices.
	lc, rc   *colMeta
	lci, rci int
	items    []joinItem
	// targets is the union of both sides' routed groups, ascending.
	targets []int
	// why says what keeps the join from running at the providers; empty
	// means nothing does.
	why string
	// limit is the LIMIT (0 = none). Providers that pair the rows stop
	// after that many pairs; the pairs are cut to it either way.
	limit uint64
}

// exclusive is the join's statement-lock mode, its sides' (each flushes its
// table's buffered lazy updates): one task per group holds it for both.
func (j *joinPlan) exclusive() bool { return j.left.exclusive() || j.right.exclusive() }

// shipped is what side's providers send per row: the value cells of its
// select-list columns — its fetch without the key, last — when the providers
// pair the rows (they match the keys themselves), otherwise its gathered
// scan's.
func (j *joinPlan) shipped(side *selectPlan) fetchPlan {
	if j.why != "" {
		return side.shipped()
	}
	return side.meta.fetchPlan(side.fetch[:len(side.fetch)-1])
}

// planJoin resolves SELECT ... FROM a JOIN b ON a.x = b.y.
func (c *Client) planJoin(s *sql.Select) (*joinPlan, error) {
	left, err := c.cat.table(s.Table)
	if err != nil {
		return nil, err
	}
	right, err := c.cat.table(s.Join.Table)
	if err != nil {
		return nil, err
	}
	if left.Name == right.Name {
		return nil, fmt.Errorf("%w: self joins", ErrUnsupported)
	}
	if s.Verified {
		return nil, fmt.Errorf("%w: VERIFIED joins", ErrUnsupported)
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
	// Resolve the ON columns: either side of the equality may name either
	// table.
	lcName, rcName, err := resolveOn(left.Name, right.Name, s.Join)
	if err != nil {
		return nil, err
	}
	j := &joinPlan{lci: left.colIndex(lcName), rci: right.colIndex(rcName), limit: s.Limit}
	if j.lc, err = left.col(lcName); err != nil {
		return nil, err
	}
	if j.rc, err = right.col(rcName); err != nil {
		return nil, err
	}
	if !j.lc.queryable() || !j.rc.queryable() {
		return nil, fmt.Errorf("%w: join on BLOB columns", ErrUnsupported)
	}
	if j.items, err = resolveJoinItems(left, right, s.Items); err != nil {
		return nil, err
	}
	// Split predicates by side.
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
	side := func(meta *tableMeta, where []sql.Predicate, isLeft bool, key int) (*selectPlan, error) {
		preds, err := compilePredicates(meta, where, meta.Name)
		if err != nil {
			return nil, err
		}
		p := &selectPlan{meta: meta, preds: preds, flush: true, oci: -1}
		for _, it := range j.items {
			if it.left == isLeft {
				p.fetch = append(p.fetch, it.ci)
			}
		}
		p.fetch = append(p.fetch, key)
		p.targets, p.route = c.routeGroups(meta, where)
		return p, nil
	}
	if j.left, err = side(left, leftPreds, true, j.lci); err != nil {
		return nil, err
	}
	if j.right, err = side(right, rightPreds, false, j.rci); err != nil {
		return nil, err
	}
	routed := make([]bool, len(c.groups))
	for _, g := range append(slices.Clip(j.left.targets), j.right.targets...) {
		routed[g] = true
	}
	for g, ok := range routed {
		if ok {
			j.targets = append(j.targets, g)
		}
	}
	// The paper's criterion: a join executes at the provider only when both
	// key attributes come from the same domain ("our polynomials are
	// constructed for each domain not for each attribute"); otherwise the
	// provider-side shares are incomparable and the client must join
	// locally after reconstruction. The provider can additionally apply at
	// most one exact left-side interval filter, so anything richer —
	// residual predicates, IN sets, right-side predicates — also falls
	// back to the local join. And a provider only holds its own group's
	// rows: unless both sides route to one and the same group, each side is
	// gathered from its routed groups and hash-joined at the client.
	switch {
	case j.lc.domain != j.rc.domain:
		j.why = fmt.Sprintf("domains differ (%q vs %q)", j.lc.domain, j.rc.domain)
	case len(rightPreds) > 0:
		j.why = fmt.Sprintf("%d predicate(s) on the right side", len(rightPreds))
	case len(leftPreds) > 1 || (len(leftPreds) == 1 && leftPreds[0].Op == sql.OpIn):
		j.why = "left-side predicates beyond one exact interval"
	case len(j.targets) > 1:
		j.why = fmt.Sprintf("the sides span %d provider groups", len(j.targets))
	}
	return j, nil
}

// execJoin runs one task per group of the lock set, under the join's lock
// mode: the task reads whichever sides route to its group under one hold of
// the group's lock, so a group never shows the join two different states of
// itself. The LIMIT cuts the pairs, in the order the join produced them.
func (c *Client) execJoin(s *sql.Select) (*Result, error) {
	j, err := c.planJoin(s)
	if err != nil {
		return nil, err
	}
	var res *Result
	lScans := make([]*scanResult, len(j.targets))
	rScans := make([]*scanResult, len(j.targets))
	err = c.scatter(j.targets, j.exclusive(), []*tableMeta{j.left.meta, j.right.meta}, func(i int, e *engine) (err error) {
		if j.why == "" {
			for _, side := range []*selectPlan{j.left, j.right} {
				if err := e.flushTableLocked(side.meta.Name); err != nil {
					return err
				}
			}
			res, err = e.joinRemote(j)
			return err
		}
		if slices.Contains(j.left.targets, e.g) {
			if lScans[i], err = e.scanPlan(j.left); err != nil {
				return err
			}
		}
		if slices.Contains(j.right.targets, e.g) {
			rScans[i], err = e.scanPlan(j.right)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// side merges the row partials of the groups one side was read in.
	side := func(slots []*scanResult) *scanResult {
		var scans []*scanResult
		var groups []int
		for i, scan := range slots {
			if scan != nil {
				scans, groups = append(scans, scan), append(groups, j.targets[i])
			}
		}
		return c.mergeScans(scans, groups)
	}
	if res == nil {
		res = joinFromScans(j.lci, j.rci, j.items, side(lScans), side(rScans))
	}
	if j.limit > 0 && uint64(len(res.Rows)) > j.limit {
		res.Rows = res.Rows[:j.limit]
	}
	return res, nil
}

// resolveOn orients the ON clause onto (leftCol, rightCol).
func resolveOn(leftTable, rightTable string, j *sql.JoinClause) (string, string, error) {
	l, r := j.Left, j.Right
	if l.Table == "" || r.Table == "" {
		return "", "", fmt.Errorf("%w: join ON columns must be table-qualified", ErrUnsupported)
	}
	switch {
	case l.Table == leftTable && r.Table == rightTable:
		return l.Name, r.Name, nil
	case l.Table == rightTable && r.Table == leftTable:
		return r.Name, l.Name, nil
	default:
		return "", "", fmt.Errorf("%w: ON clause references %q and %q, expected %q and %q",
			ErrUnsupported, l.Table, r.Table, leftTable, rightTable)
	}
}

// resolveJoinItems maps the select list onto the two sides.
func resolveJoinItems(left, right *tableMeta, items []sql.SelectItem) ([]joinItem, error) {
	var out []joinItem
	addAll := func(meta *tableMeta, isLeft bool) {
		for ci := range meta.Cols {
			out = append(out, joinItem{left: isLeft, ci: ci, name: meta.Name + "." + meta.Cols[ci].Name})
		}
	}
	for _, item := range items {
		if item.Star {
			addAll(left, true)
			addAll(right, false)
			continue
		}
		ref := item.Col
		find := func(meta *tableMeta) int { return meta.colIndex(ref.Name) }
		switch {
		case ref.Table == left.Name:
			ci := find(left)
			if ci < 0 {
				return nil, fmt.Errorf("%w: %q", ErrNoSuchColumn, ref)
			}
			out = append(out, joinItem{left: true, ci: ci, name: ref.String()})
		case ref.Table == right.Name:
			ci := find(right)
			if ci < 0 {
				return nil, fmt.Errorf("%w: %q", ErrNoSuchColumn, ref)
			}
			out = append(out, joinItem{left: false, ci: ci, name: ref.String()})
		case ref.Table == "":
			lci, rci := find(left), find(right)
			if lci >= 0 && rci >= 0 {
				return nil, fmt.Errorf("%w: column %q is ambiguous across joined tables", ErrUnsupported, ref.Name)
			}
			if lci >= 0 {
				out = append(out, joinItem{left: true, ci: lci, name: left.Name + "." + ref.Name})
			} else if rci >= 0 {
				out = append(out, joinItem{left: false, ci: rci, name: right.Name + "." + ref.Name})
			} else {
				return nil, fmt.Errorf("%w: %q", ErrNoSuchColumn, ref)
			}
		default:
			return nil, fmt.Errorf("%w: %q names an unjoined table", ErrNoSuchColumn, ref)
		}
	}
	return out, nil
}

// predicateSide classifies a WHERE conjunct: 0 = left table, 1 = right.
func predicateSide(left, right *tableMeta, p sql.Predicate) (int, error) {
	has := func(meta *tableMeta) bool { return meta.colIndex(p.Col.Name) >= 0 }
	switch {
	case p.Col.Table == left.Name:
		return 0, nil
	case p.Col.Table == right.Name:
		return 1, nil
	case p.Col.Table == "":
		inL, inR := has(left), has(right)
		if inL && inR {
			return 0, fmt.Errorf("%w: predicate column %q is ambiguous", ErrUnsupported, p.Col.Name)
		}
		if inL {
			return 0, nil
		}
		if inR {
			return 1, nil
		}
		return 0, fmt.Errorf("%w: %q", ErrNoSuchColumn, p.Col)
	default:
		return 0, fmt.Errorf("%w: predicate references unjoined table %q", ErrUnsupported, p.Col.Table)
	}
}

// joinRemote executes the equijoin at this group's providers (same-domain
// keys, both sides wholly in this group), which stream their pairs, at most
// the LIMIT of them, as row chunks that the transport reassembles. Each
// provider's pairs are cut into their two sides — left ids and cells, right
// ids and cells — and each side is checked and combined like a scan of its
// own table, so the K providers agree on a pair exactly when they agree on
// both of its halves.
func (e *engine) joinRemote(j *joinPlan) (*Result, error) {
	left, right, items := j.left.meta, j.right.meta, j.items
	res := &Result{Columns: joinColumns(items)}
	if emptyWhere(j.left.preds) {
		return res, nil
	}
	filters, err := e.providerFilters(left, j.left.preds)
	if err != nil {
		return nil, err
	}
	// The providers match pairs on the keys' order-preserving shares.
	lPlan, rPlan := j.shipped(j.left), j.shipped(j.right)
	responses, err := e.collectWhole(e.opts.K, e.opts.readQuorum(false), func(i int) proto.Message {
		return &proto.JoinRequest{
			LeftTable:    left.Name,
			LeftCol:      j.lc.Name + suffixOPP,
			RightTable:   right.Name,
			RightCol:     j.rc.Name + suffixOPP,
			LeftProj:     lPlan.names,
			RightProj:    rPlan.names,
			Filter:       filters[i],
			LeftIDsOnly:  lPlan.idsOnly(),
			RightIDsOnly: rPlan.idsOnly(),
			Limit:        j.limit,
		}
	}, e.readDeadline())
	if err != nil {
		return nil, err
	}
	providers := make([]int, len(responses))
	lResps := make([]*proto.RowsResponse, len(responses))
	rResps := make([]*proto.RowsResponse, len(responses))
	for i, r := range responses {
		rr, err := as[*proto.RowsResponse](r.p, r.msg)
		if err != nil {
			return nil, err
		}
		providers[i] = r.p
		if lResps[i], rResps[i], err = splitPairs(r.p, rr, len(lPlan.names)); err != nil {
			return nil, err
		}
	}
	lScan, err := e.reconstructRows(left, &lPlan, providers, lResps, false)
	if err != nil {
		return nil, err
	}
	rScan, err := e.reconstructRows(right, &rPlan, providers, rResps, false)
	if err != nil {
		return nil, err
	}
	for pair := range lScan.values {
		row := make([]Value, len(items))
		for i, item := range items {
			if item.left {
				row[i] = lScan.values[pair][item.ci]
			} else {
				row[i] = rScan.values[pair][item.ci]
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// splitPairs cuts one provider's joined pairs into its two sides' answers:
// the first nl header names and cells of every pair under the pair's left row
// id, and the names and cells after the right-id cell under the right row id
// that cell carries. A header or pair without that cell where nl puts it is
// ErrInconsistent; a side of the wrong width is left malformed, which
// reconstructRows refuses before reading a cell.
func splitPairs(provider int, rr *proto.RowsResponse, nl int) (l, r *proto.RowsResponse, err error) {
	if len(rr.Columns) <= nl || rr.Columns[nl] != proto.JoinRightID {
		return nil, nil, fmt.Errorf("%w: provider %d answered a join with columns %v, no right row id after %d",
			ErrInconsistent, provider, rr.Columns, nl)
	}
	l = &proto.RowsResponse{Columns: rr.Columns[:nl], Rows: make([]proto.Row, len(rr.Rows))}
	r = &proto.RowsResponse{Columns: rr.Columns[nl+1:], Rows: make([]proto.Row, len(rr.Rows))}
	for i, pair := range rr.Rows {
		if len(pair.Cells) <= nl || len(pair.Cells[nl]) != 8 {
			return nil, nil, fmt.Errorf("%w: provider %d sent a pair of left row %d without a right row id",
				ErrInconsistent, provider, pair.ID)
		}
		l.Rows[i] = proto.Row{ID: pair.ID, Cells: pair.Cells[:nl]}
		r.Rows[i] = proto.Row{ID: beUint64(pair.Cells[nl]), Cells: pair.Cells[nl+1:]}
	}
	return l, r, nil
}

func joinColumns(items []joinItem) []string {
	cols := make([]string, len(items))
	for i, it := range items {
		cols[i] = it.name
	}
	return cols
}

// joinFromScans hash-joins the two gathered sides at the client, on the
// typed values of key columns lci and rci — the fallback for cross-domain
// keys, which the paper's provider-side scheme cannot execute, and for sides
// that span provider groups. Each scan must have fetched its key column and
// its side of the select list.
func joinFromScans(lci, rci int, items []joinItem, lScan, rScan *scanResult) *Result {
	// Hash join on the display form of the key value (typed equality).
	build := make(map[string][]int)
	for r := range rScan.values {
		k := joinKey(rScan.values[r][rci])
		build[k] = append(build[k], r)
	}
	res := &Result{Columns: joinColumns(items)}
	for lr := range lScan.values {
		k := joinKey(lScan.values[lr][lci])
		for _, rr := range build[k] {
			row := make([]Value, len(items))
			for i, item := range items {
				if item.left {
					row[i] = lScan.values[lr][item.ci]
				} else {
					row[i] = rScan.values[rr][item.ci]
				}
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

// joinKey canonicalizes a value for hash-join equality. Cross-domain joins
// compare the rendered forms (e.g. INT 5 joins DECIMAL 5.00 only when the
// renderings match, mirroring strict typed equality).
func joinKey(v Value) string {
	return fmt.Sprintf("%d|%s", v.Kind, v.Format())
}
