package client

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"sssdb/internal/field"
	"sssdb/internal/proto"
	"sssdb/internal/secretshare"
	"sssdb/internal/sql"
)

// reduction is what a bucket's rows are reduced to besides their count: the
// sum of column cm, or the value of the row that is its MIN, MAX or MEDIAN.
// It is what one provider round computes, and a bucket holds one value per
// reduction whichever side reduced it.
type reduction struct {
	op proto.AggOp
	cm *colMeta
}

// reductionOf resolves an aggregate item onto the reduction that renders it.
// COUNT needs no column's — every bucket carries its count — and AVG is a SUM
// divided after the merge.
func (meta *tableMeta) reductionOf(item sql.SelectItem) (red reduction, err error) {
	if red.cm, err = meta.aggItemCol(item); err != nil {
		return reduction{}, err
	}
	switch item.Agg {
	case sql.AggSum, sql.AggAvg:
		red.op = proto.AggSum
	case sql.AggMin:
		red.op = proto.AggMin
	case sql.AggMax:
		red.op = proto.AggMax
	case sql.AggMedian:
		red.op = proto.AggMedian
	default:
		return reduction{op: proto.AggCount}, nil
	}
	return red, nil
}

// reductions lists the distinct reductions of a column that items need, in
// item order: what a bucket is reduced to, by either side, once each.
func (meta *tableMeta) reductions(items []sql.SelectItem) ([]reduction, error) {
	var reds []reduction
	for _, item := range items {
		red, err := meta.reductionOf(item)
		if err != nil {
			return nil, err
		}
		if red.cm != nil && !slices.Contains(reds, red) {
			reds = append(reds, red)
		}
	}
	return reds, nil
}

// group is one aggregate bucket during reconstruction: a GROUP BY key's, or
// the only one of an aggregate without a key.
type group struct {
	key   Value
	enc   uint64 // key's encoding: bucket identity and order
	count uint64
	// vals holds the bucket's value per reduction: a SUM's (scaled) total in
	// I, the picked row's value otherwise.
	vals map[reduction]Value
}

// render produces one aggregate output cell for this bucket.
func (g *group) render(meta *tableMeta, item sql.SelectItem) (Value, error) {
	red, err := meta.reductionOf(item)
	if err != nil {
		return Value{}, err
	}
	switch {
	case item.Agg == sql.AggCount:
		return IntValue(int64(g.count)), nil
	case g.count == 0:
		return emptyAggValue(item, red.cm)
	case red.op != proto.AggSum:
		return g.vals[red], nil
	}
	total := g.vals[red].I
	if item.Agg == sql.AggAvg {
		total /= int64(g.count)
	}
	if red.cm.Type == sql.TypeDecimal {
		return DecimalValue(total, red.cm.Arg), nil
	}
	return IntValue(total), nil
}

func aggKey(item sql.SelectItem) string {
	if item.Star {
		return "COUNT(*)"
	}
	return item.Agg.String() + "(" + item.Col.Name + ")"
}

// planBuckets validates an aggregate statement against the table's schema and
// resolves the column that keys its buckets (nil, -1 without GROUP BY) and
// the items to compute (select list plus HAVING).
func planBuckets(meta *tableMeta, s *sql.Select) (gcm *colMeta, gci int, computeItems []sql.SelectItem, err error) {
	gci = -1
	if s.GroupBy != nil {
		if s.OrderBy != nil {
			return nil, 0, nil, fmt.Errorf("%w: ORDER BY with GROUP BY (groups already come back in key order)", ErrUnsupported)
		}
		if s.GroupBy.Table != "" && s.GroupBy.Table != meta.Name {
			return nil, 0, nil, fmt.Errorf("%w: %q", ErrNoSuchColumn, s.GroupBy)
		}
		if gcm, err = meta.col(s.GroupBy.Name); err != nil {
			return nil, 0, nil, err
		}
		if !gcm.queryable() {
			return nil, 0, nil, fmt.Errorf("%w: GROUP BY on BLOB column %q", ErrUnsupported, gcm.Name)
		}
		gci = meta.colIndex(gcm.Name)
	}
	// The aggregates to compute cover both the select list and HAVING.
	computeItems = append([]sql.SelectItem(nil), s.Items...)
	for _, hp := range s.Having {
		computeItems = append(computeItems, hp.Item)
	}
	// Plain items must be the key column; every aggregate must be well-typed.
	for i, item := range computeItems {
		if item.Agg == sql.AggNone {
			switch {
			case gcm == nil:
				return nil, 0, nil, fmt.Errorf("%w: mixing aggregates and plain columns", ErrUnsupported)
			case i >= len(s.Items):
				return nil, 0, nil, fmt.Errorf("%w: HAVING requires an aggregate", ErrUnsupported)
			case item.Star:
				return nil, 0, nil, fmt.Errorf("%w: SELECT * with GROUP BY", ErrUnsupported)
			case item.Col.Name != gcm.Name:
				return nil, 0, nil, fmt.Errorf("%w: column %q must appear in an aggregate or in GROUP BY",
					ErrUnsupported, item.Col)
			}
			continue
		}
		red, err := meta.reductionOf(item)
		if err != nil {
			return nil, 0, nil, err
		}
		if red.op == proto.AggSum && red.cm.Type == sql.TypeVarchar {
			return nil, 0, nil, fmt.Errorf("%w: %s over VARCHAR column %q", ErrUnsupported, item.Agg, red.cm.Name)
		}
	}
	return gcm, gci, computeItems, nil
}

// renderGroups applies HAVING, then the LIMIT in bucket order, and renders
// the merged group list into a Result in select-list order.
func renderGroups(meta *tableMeta, s *sql.Select, groups []*group, verified bool) (*Result, error) {
	var err error
	if len(s.Having) > 0 {
		groups, err = filterHaving(meta, groups, s.Having)
		if err != nil {
			return nil, err
		}
	}
	if s.Limit > 0 && uint64(len(groups)) > s.Limit {
		groups = groups[:s.Limit]
	}
	res := &Result{Verified: verified}
	for _, item := range s.Items {
		if item.Agg == sql.AggNone {
			res.Columns = append(res.Columns, item.Col.Name)
		} else {
			res.Columns = append(res.Columns, aggKey(item))
		}
	}
	for _, g := range groups {
		row := make([]Value, 0, len(s.Items))
		for _, item := range s.Items {
			if item.Agg == sql.AggNone {
				row = append(row, g.key)
				continue
			}
			v, err := g.render(meta, item)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// filterHaving drops groups whose aggregate values fail the HAVING
// conjuncts.
func filterHaving(meta *tableMeta, groups []*group, having []sql.HavingPredicate) ([]*group, error) {
	out := groups[:0]
	for _, g := range groups {
		keep := true
		for _, hp := range having {
			v, err := g.render(meta, hp.Item)
			if err != nil {
				return nil, err
			}
			ok, err := havingMatches(meta, hp, v)
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, g)
		}
	}
	return out, nil
}

// havingMatches compares one group's aggregate value against the literal(s).
func havingMatches(meta *tableMeta, hp sql.HavingPredicate, v Value) (bool, error) {
	// cmpLit returns sign(v - lit).
	cmpLit := func(lit sql.Literal) (int, error) {
		if hp.Item.Agg == sql.AggCount {
			lv, err := parseCountLiteral(lit)
			if err != nil {
				return 0, err
			}
			return cmp.Compare(v.I, lv), nil
		}
		cm, err := meta.col(hp.Item.Col.Name)
		if err != nil {
			return 0, err
		}
		lv, err := cm.parseValue(lit)
		if err != nil {
			return 0, err
		}
		if v.Kind == KindString {
			a, err := cm.encode(v)
			if err != nil {
				return 0, err
			}
			b, err := cm.encode(lv)
			return cmp.Compare(a, b), err
		}
		return cmp.Compare(v.I, lv.I), nil
	}
	lo, err := cmpLit(hp.Lo)
	if err != nil {
		return false, err
	}
	switch hp.Op {
	case sql.OpEq:
		return lo == 0, nil
	case sql.OpLt:
		return lo < 0, nil
	case sql.OpLe:
		return lo <= 0, nil
	case sql.OpGt:
		return lo > 0, nil
	case sql.OpGe:
		return lo >= 0, nil
	case sql.OpBetween:
		hi, err := cmpLit(hp.Hi)
		if err != nil {
			return false, err
		}
		return lo >= 0 && hi <= 0, nil
	default:
		return false, fmt.Errorf("%w: HAVING operator %v", ErrUnsupported, hp.Op)
	}
}

func parseCountLiteral(lit sql.Literal) (int64, error) {
	if lit.IsString {
		return 0, fmt.Errorf("%w: COUNT compared with a string", ErrTypeMismatch)
	}
	var v int64
	if _, err := fmt.Sscan(lit.Text, &v); err != nil {
		return 0, fmt.Errorf("%w: %q: %v", ErrTypeMismatch, lit.Text, err)
	}
	return v, nil
}

// groupedFromScan buckets the gathered matching rows by the key column — all
// into one bucket without one — and reduces every bucket for every item: the
// client-side path, for residual predicates, verified mode and a MEDIAN over
// several groups.
func groupedFromScan(meta *tableMeta, gcm *colMeta, gci int, scan *scanResult, items []sql.SelectItem) ([]*group, error) {
	reds, err := meta.reductions(items)
	if err != nil {
		return nil, err
	}
	byKey := make(map[uint64]*group)
	rowsByKey := make(map[uint64][][]Value)
	for _, row := range scan.values {
		var key Value
		var enc uint64
		if gcm != nil {
			key = row[gci]
			if enc, err = gcm.encode(key); err != nil {
				return nil, err
			}
		}
		if _, ok := byKey[enc]; !ok {
			byKey[enc] = &group{key: key, enc: enc, vals: map[reduction]Value{}}
		}
		rowsByKey[enc] = append(rowsByKey[enc], row)
	}
	for enc, g := range byKey {
		g.count = uint64(len(rowsByKey[enc]))
		for _, red := range reds {
			if g.vals[red], err = aggregateLocal(red, meta.colIndex(red.cm.Name), rowsByKey[enc]); err != nil {
				return nil, err
			}
		}
	}
	return sortedGroups(byKey), nil
}

// groupedRemote reduces the buckets provider-side: each provider partitions
// the matching rows by the key column's deterministic share (into one bucket
// without a key) and returns per-bucket partials in share (= value) order, so
// the client aligns buckets positionally, inverts each key from a single
// share, and reconstructs each bucket's sum — or, order preservation having
// made every provider pick the same row, its MIN/MAX/MEDIAN — from k value
// shares (Lagrange). One round per distinct reduction: every round's buckets
// carry their counts, so COUNT costs a round only when nothing else is asked.
func (e *engine) groupedRemote(meta *tableMeta, gcm *colMeta, preds []compiledPred, items []sql.SelectItem) ([]*group, error) {
	if emptyWhere(preds) {
		return nil, nil
	}
	filters, err := e.providerFilters(meta, preds)
	if err != nil {
		return nil, err
	}
	rounds, err := meta.reductions(items)
	if err != nil {
		return nil, err
	}
	if len(rounds) == 0 {
		rounds = []reduction{{op: proto.AggCount}}
	}
	var groups []*group
	for ri, red := range rounds {
		picks := red.op != proto.AggCount && red.op != proto.AggSum
		responses, err := e.collectWhole(e.opts.K, e.opts.readQuorum(false), func(i int) proto.Message {
			r := &proto.AggregateRequest{Table: meta.Name, Op: red.op, Filter: filters[i]}
			if gcm != nil {
				r.GroupCol = gcm.Name + suffixOPP
			}
			if red.cm != nil {
				r.ValueCol = red.cm.Name + suffixField
			}
			if picks {
				r.OrderCol = red.cm.Name + suffixOPP
			}
			return r
		}, e.readDeadline())
		if err != nil {
			return nil, err
		}
		// This is the one place the K partials of a bucket are combined, so it
		// is where they are checked: the providers must agree on the buckets,
		// on every bucket's count and on the row every bucket picked.
		results := make([]*proto.GroupResult, len(responses))
		for i, r := range responses {
			if results[i], err = as[*proto.GroupResult](r.p, r.msg); err != nil {
				return nil, err
			}
			if got, base := results[i], results[0]; got.Picks != picks || len(got.Groups) != len(base.Groups) {
				return nil, fmt.Errorf("%w: provider %d answers %s with %d buckets (picked rows: %v), provider %d with %d",
					ErrInconsistent, r.p, red.op, len(got.Groups), got.Picks, responses[0].p, len(base.Groups))
			}
		}
		base := results[0].Groups
		if ri == 0 {
			if groups, err = e.decodeBuckets(gcm, responses[0].p, base); err != nil {
				return nil, err
			}
		} else if len(base) != len(groups) {
			return nil, fmt.Errorf("%w: bucket sets diverge across aggregate rounds", ErrInconsistent)
		}
		shares := make([]secretshare.Share, len(responses))
		for b, g := range groups {
			for i, r := range responses {
				if got := results[i].Groups[b]; got.Count != g.count || got.Pick != base[b].Pick {
					return nil, fmt.Errorf("%w: provider %d reports count %d and picked row %d for bucket %d, others %d and %d",
						ErrInconsistent, r.p, got.Count, got.Pick, b, g.count, base[b].Pick)
				}
				shares[i] = secretshare.Share{Index: r.p, Y: field.New(results[i].Groups[b].Sum)}
			}
			if red.cm == nil {
				continue
			}
			u, err := e.fieldSch.Reconstruct(shares)
			if err != nil {
				return nil, err
			}
			if picks {
				g.vals[red], err = red.cm.decode(u.Uint64())
			} else {
				// Partial sums are shares of the true sum by linearity.
				var total int64
				total, err = decodeSum(red.cm, u.Uint64(), g.count)
				g.vals[red] = IntValue(total)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return groups, nil
}

// decodeBuckets opens one bucket per partial of one provider's answer: the
// key inverted from that provider's single share, the count as it reports it.
func (e *engine) decodeBuckets(gcm *colMeta, provider int, parts []proto.GroupPartial) ([]*group, error) {
	if gcm == nil && len(parts) > 1 {
		return nil, fmt.Errorf("%w: provider %d answered an aggregate without a key with %d buckets", ErrInconsistent, provider, len(parts))
	}
	groups := make([]*group, len(parts))
	for b, gp := range parts {
		g := &group{count: gp.Count, vals: map[reduction]Value{}}
		if gcm != nil {
			share, err := gcm.oppSch.ParseShare(gp.Key)
			if err != nil {
				return nil, fmt.Errorf("%w: malformed group key: %v", ErrInconsistent, err)
			}
			if g.enc, err = gcm.oppSch.ReconstructSearch(provider, share); err != nil {
				return nil, fmt.Errorf("%w: group key has no preimage: %v", ErrVerification, err)
			}
			if g.key, err = gcm.decode(g.enc); err != nil {
				return nil, err
			}
		}
		groups[b] = g
	}
	return groups, nil
}

// mergeGroups re-reduces the routed groups' bucket partials by key: buckets
// with the same key add their counts and sums and keep the lesser MIN and the
// greater MAX by encoded (= value) order — a MEDIAN is reduced provider-side
// only when one group is routed. One partial is already the answer.
func mergeGroups(parts [][]*group) ([]*group, error) {
	if len(parts) == 1 {
		return parts[0], nil
	}
	byKey := make(map[uint64]*group)
	for _, part := range parts {
		for _, g := range part {
			m, ok := byKey[g.enc]
			if !ok {
				byKey[g.enc] = g
				continue
			}
			m.count += g.count
			for red, v := range g.vals {
				if red.op == proto.AggSum {
					m.vals[red] = IntValue(m.vals[red].I + v.I)
					continue
				}
				have, err := red.cm.encode(m.vals[red])
				if err != nil {
					return nil, err
				}
				enc, err := red.cm.encode(v)
				if err != nil {
					return nil, err
				}
				if (red.op == proto.AggMin && enc < have) || (red.op == proto.AggMax && enc > have) {
					m.vals[red] = v
				}
			}
		}
	}
	return sortedGroups(byKey), nil
}

// sortedGroups lists buckets in encoded-key order, which is every provider's
// own order (share order = value order).
func sortedGroups(byKey map[uint64]*group) []*group {
	groups := make([]*group, 0, len(byKey))
	for _, g := range byKey {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].enc < groups[j].enc })
	return groups
}
