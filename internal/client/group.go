package client

import (
	"fmt"
	"sort"

	"sssdb/internal/field"
	"sssdb/internal/proto"
	"sssdb/internal/secretshare"
	"sssdb/internal/sql"
)

// group is one GROUP BY bucket during reconstruction.
type group struct {
	key   Value
	count uint64
	// sums holds reconstructed (scaled) SUM totals per value column —
	// provider-side path only; AVG divides at render time.
	sums map[string]int64
	// vals holds fully-computed aggregate values — client-side path.
	vals map[string]Value
}

// render produces one aggregate output cell for this group.
func (g *group) render(meta *tableMeta, item sql.SelectItem) (Value, error) {
	key := aggKey(item)
	if v, ok := g.vals[key]; ok {
		return v, nil
	}
	if item.Agg == sql.AggCount {
		return IntValue(int64(g.count)), nil
	}
	raw, ok := g.sums[item.Col.Name]
	if !ok {
		return Value{}, fmt.Errorf("%w: internal: missing aggregate %s", ErrUnsupported, key)
	}
	if item.Agg == sql.AggAvg && g.count > 0 {
		raw /= int64(g.count)
	}
	cm, err := meta.col(item.Col.Name)
	if err != nil {
		return Value{}, err
	}
	if cm.Type == sql.TypeDecimal {
		return DecimalValue(raw, cm.Arg), nil
	}
	return IntValue(raw), nil
}

func aggKey(item sql.SelectItem) string {
	if item.Star {
		return "COUNT(*)"
	}
	return item.Agg.String() + "(" + item.Col.Name + ")"
}

// planGroupBy validates a GROUP BY statement against the table's schema and
// resolves the grouping column, the aggregates to compute (select list plus
// HAVING), and whether every aggregate is provider-combinable (COUNT, SUM,
// AVG).
func planGroupBy(meta *tableMeta, s *sql.Select) (gcm *colMeta, gci int, computeItems []sql.SelectItem, simpleOnly bool, err error) {
	if s.OrderBy != nil {
		return nil, 0, nil, false, fmt.Errorf("%w: ORDER BY with GROUP BY (groups already come back in key order)", ErrUnsupported)
	}
	if s.GroupBy.Table != "" && s.GroupBy.Table != meta.Name {
		return nil, 0, nil, false, fmt.Errorf("%w: %q", ErrNoSuchColumn, s.GroupBy)
	}
	gcm, err = meta.col(s.GroupBy.Name)
	if err != nil {
		return nil, 0, nil, false, err
	}
	if !gcm.queryable() {
		return nil, 0, nil, false, fmt.Errorf("%w: GROUP BY on BLOB column %q", ErrUnsupported, gcm.Name)
	}
	gci = meta.colIndex(gcm.Name)
	// The aggregates to compute cover both the select list and HAVING.
	computeItems = append([]sql.SelectItem(nil), s.Items...)
	for _, hp := range s.Having {
		computeItems = append(computeItems, hp.Item)
	}
	// Validate the select list: plain items must be the group column; every
	// aggregate must be well-typed.
	simpleOnly = true // aggregates all in {COUNT, SUM, AVG}
	for i, item := range computeItems {
		if item.Agg == sql.AggNone {
			if i >= len(s.Items) {
				return nil, 0, nil, false, fmt.Errorf("%w: HAVING requires an aggregate", ErrUnsupported)
			}
			if item.Star {
				return nil, 0, nil, false, fmt.Errorf("%w: SELECT * with GROUP BY", ErrUnsupported)
			}
			if item.Col.Name != gcm.Name {
				return nil, 0, nil, false, fmt.Errorf("%w: column %q must appear in an aggregate or in GROUP BY",
					ErrUnsupported, item.Col)
			}
			continue
		}
		if _, _, err := meta.aggItemCol(item); err != nil {
			return nil, 0, nil, false, err
		}
		if item.Agg != sql.AggCount && item.Agg != sql.AggSum && item.Agg != sql.AggAvg {
			simpleOnly = false
		}
	}
	return gcm, gci, computeItems, simpleOnly, nil
}

// renderGroups applies HAVING and renders the merged group list into a Result
// in select-list order.
func renderGroups(meta *tableMeta, s *sql.Select, groups []*group, verified bool) (*Result, error) {
	var err error
	if len(s.Having) > 0 {
		groups, err = filterHaving(meta, groups, s.Having)
		if err != nil {
			return nil, err
		}
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
			return compareInt64(v.I, lv), nil
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
			if err != nil {
				return 0, err
			}
			switch {
			case a < b:
				return -1, nil
			case a > b:
				return 1, nil
			default:
				return 0, nil
			}
		}
		return compareInt64(v.I, lv.I), nil
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

func compareInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// groupedFromScan buckets the gathered matching rows by the group column and
// computes every aggregate per bucket, in encoded-key order — the client-side
// path, for aggregates that do not merge, residual predicates, and verified
// mode.
func groupedFromScan(meta *tableMeta, gcm *colMeta, gci int, scan *scanResult, items []sql.SelectItem) ([]*group, error) {
	byKey := make(map[uint64]*group)
	rowsByKey := make(map[uint64][]int)
	var order []uint64
	for r := range scan.values {
		enc, err := gcm.encode(scan.values[r][gci])
		if err != nil {
			return nil, err
		}
		if _, ok := byKey[enc]; !ok {
			byKey[enc] = &group{key: scan.values[r][gci], vals: map[string]Value{}}
			order = append(order, enc)
		}
		rowsByKey[enc] = append(rowsByKey[enc], r)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	groups := make([]*group, 0, len(order))
	for _, enc := range order {
		g := byKey[enc]
		rows := rowsByKey[enc]
		g.count = uint64(len(rows))
		sub := &scanResult{}
		for _, r := range rows {
			sub.ids = append(sub.ids, scan.ids[r])
			sub.values = append(sub.values, scan.values[r])
		}
		for _, item := range items {
			if item.Agg == sql.AggNone {
				continue
			}
			v, err := aggregateLocal(meta, sub, item)
			if err != nil {
				return nil, err
			}
			g.vals[aggKey(item)] = v
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// groupedRemote runs provider-side grouped aggregation for COUNT/SUM/AVG:
// each provider partitions matching rows by the group column's deterministic
// share and returns per-group partials in share (= value) order, so the
// client aligns groups positionally, inverts each key from a single share,
// and reconstructs each group's sum from k partials (Lagrange).
func (e *engine) groupedRemote(meta *tableMeta, gcm *colMeta, preds []compiledPred, items []sql.SelectItem) ([]*group, error) {
	for _, cp := range preds {
		if cp.empty {
			return nil, nil
		}
	}
	filters, err := e.providerFilters(meta, preds)
	if err != nil {
		return nil, err
	}
	// Distinct value columns needing SUM partials.
	valueCols := map[string]*colMeta{}
	for _, item := range items {
		if item.Agg == sql.AggSum || item.Agg == sql.AggAvg {
			cm, _, err := meta.aggItemCol(item)
			if err != nil {
				return nil, err
			}
			if cm.Type == sql.TypeVarchar {
				return nil, fmt.Errorf("%w: %s over VARCHAR column %q", ErrUnsupported, item.Agg, cm.Name)
			}
			valueCols[cm.Name] = cm
		}
	}

	type remotePartials struct {
		providers []int
		results   []*proto.GroupResult
	}
	fetch := func(op proto.AggOp, valueCol string) (*remotePartials, error) {
		responses, err := e.callQuorum(e.opts.K, e.opts.K, func(i int) proto.Message {
			return &proto.AggregateRequest{
				Table:    meta.Name,
				Op:       op,
				ValueCol: valueCol,
				GroupCol: gcm.Name + suffixOPP,
				Filter:   filters[i],
			}
		}, e.readDeadline())
		if err != nil {
			return nil, err
		}
		rp := &remotePartials{}
		for _, r := range responses {
			gr, err := as[*proto.GroupResult](r.provider, r.msg)
			if err != nil {
				return nil, err
			}
			rp.providers = append(rp.providers, r.provider)
			rp.results = append(rp.results, gr)
		}
		base := rp.results[0]
		for i := 1; i < len(rp.results); i++ {
			if len(rp.results[i].Groups) != len(base.Groups) {
				return nil, fmt.Errorf("%w: providers report %d vs %d groups",
					ErrInconsistent, len(base.Groups), len(rp.results[i].Groups))
			}
			for gidx := range base.Groups {
				if rp.results[i].Groups[gidx].Count != base.Groups[gidx].Count {
					return nil, fmt.Errorf("%w: group %d counts diverge", ErrInconsistent, gidx)
				}
			}
		}
		return rp, nil
	}

	var first *remotePartials
	sums := map[string][]int64{}
	if len(valueCols) == 0 {
		rp, err := fetch(proto.AggCount, "")
		if err != nil {
			return nil, err
		}
		first = rp
	}
	for _, name := range sortedColNames(valueCols) {
		cm := valueCols[name]
		rp, err := fetch(proto.AggSum, cm.Name+suffixField)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = rp
		} else if len(rp.results[0].Groups) != len(first.results[0].Groups) {
			return nil, fmt.Errorf("%w: group sets diverge across aggregate fetches", ErrInconsistent)
		}
		perGroup := make([]int64, len(rp.results[0].Groups))
		for gidx := range rp.results[0].Groups {
			shares := make([]secretshare.Share, len(rp.providers))
			for i, p := range rp.providers {
				shares[i] = secretshare.Share{Index: p, Y: field.New(rp.results[i].Groups[gidx].Sum)}
			}
			sumEnc, err := e.fieldSch.Reconstruct(shares)
			if err != nil {
				return nil, err
			}
			total, err := decodeSum(cm, sumEnc.Uint64(), rp.results[0].Groups[gidx].Count)
			if err != nil {
				return nil, err
			}
			perGroup[gidx] = total
		}
		sums[cm.Name] = perGroup
	}
	if first == nil {
		return nil, nil
	}
	// Decode group keys from the first responding provider's shares.
	providerIdx := first.providers[0]
	groups := make([]*group, 0, len(first.results[0].Groups))
	for gidx, gp := range first.results[0].Groups {
		share, err := gcm.oppSch[e.g].ParseShare(gp.Key)
		if err != nil {
			return nil, fmt.Errorf("%w: malformed group key: %v", ErrInconsistent, err)
		}
		enc, err := gcm.oppSch[e.g].ReconstructSearch(providerIdx, share)
		if err != nil {
			return nil, fmt.Errorf("%w: group key has no preimage: %v", ErrVerification, err)
		}
		keyVal, err := gcm.decode(enc)
		if err != nil {
			return nil, err
		}
		g := &group{key: keyVal, count: gp.Count, sums: map[string]int64{}, vals: map[string]Value{}}
		for name, perGroup := range sums {
			g.sums[name] = perGroup[gidx]
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// mergeGroups re-reduces bucket partials by group key: buckets with the same
// key add their counts and sums, and the merged list sorts by encoded key,
// which is every partial's own order (share order = value order). One
// partial is already the answer.
func mergeGroups(gcm *colMeta, parts [][]*group) ([]*group, error) {
	if len(parts) == 1 {
		return parts[0], nil
	}
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
	groups := make([]*group, 0, len(order))
	for _, enc := range order {
		groups = append(groups, byKey[enc])
	}
	return groups, nil
}

func sortedColNames(m map[string]*colMeta) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
