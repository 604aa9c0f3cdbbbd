package client

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"sssdb/internal/field"
	"sssdb/internal/proto"
	"sssdb/internal/secretshare"
	"sssdb/internal/sql"
)

// ErrEmptyAggregate reports MIN/MAX/MEDIAN/AVG over zero rows.
var ErrEmptyAggregate = errors.New("client: aggregate over an empty row set")

func (c *Client) execSelect(s *sql.Select) (*Result, error) {
	if s.Join != nil {
		return c.execJoin(s)
	}
	meta, err := c.table(s.Table)
	if err != nil {
		return nil, err
	}
	if s.GroupBy != nil {
		return c.execGroupedAggregates(meta, s)
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
		return c.execAggregates(meta, s)
	}
	preds, err := c.compilePredicates(meta, s.Where, "")
	if err != nil {
		return nil, err
	}
	cols, idx, err := selectColumns(meta, s.Items)
	if err != nil {
		return nil, err
	}
	verified := s.Verified || c.opts.Verified
	if s.OrderBy == nil {
		scan, err := c.scanTable(meta, preds, c.readOpts(idx, s.Limit, verified))
		if err != nil {
			return nil, err
		}
		return projectScan(cols, idx, scan), nil
	}
	oci, err := orderColumn(meta, s.OrderBy)
	if err != nil {
		return nil, err
	}
	// LIMIT applies after the sort, so the scan cannot pre-truncate.
	scan, err := c.scanTable(meta, preds, c.readOpts(append(slices.Clip(idx), oci), 0, verified))
	if err != nil {
		return nil, err
	}
	if err := orderScan(meta, scan, oci, s.OrderBy.Desc, s.Limit); err != nil {
		return nil, err
	}
	return projectScan(cols, idx, scan), nil
}

// orderColumn resolves an ORDER BY clause onto its column's index.
func orderColumn(meta *tableMeta, oc *sql.OrderClause) (int, error) {
	if oc.Col.Table != "" && oc.Col.Table != meta.Name {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchColumn, oc.Col)
	}
	cm, err := meta.col(oc.Col.Name)
	if err != nil {
		return 0, err
	}
	if !cm.queryable() {
		return 0, fmt.Errorf("%w: ORDER BY on BLOB column %q", ErrUnsupported, cm.Name)
	}
	return meta.colIndex(cm.Name), nil
}

// orderScan sorts reconstructed rows by column ci's encoded value (which is
// exactly value order), ascending or descending, then keeps the first limit
// rows (0 = all). Ties keep row-id order so results are deterministic.
func orderScan(meta *tableMeta, scan *scanResult, ci int, desc bool, limit uint64) error {
	cm := &meta.Cols[ci]
	type keyed struct {
		enc uint64
		id  uint64
		pos int
	}
	keys := make([]keyed, len(scan.ids))
	for r := range scan.ids {
		enc, err := cm.encode(scan.values[r][ci])
		if err != nil {
			return err
		}
		keys[r] = keyed{enc: enc, id: scan.ids[r], pos: r}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].enc != keys[b].enc {
			if desc {
				return keys[a].enc > keys[b].enc
			}
			return keys[a].enc < keys[b].enc
		}
		return keys[a].id < keys[b].id
	})
	if limit > 0 && uint64(len(keys)) > limit {
		keys = keys[:limit]
	}
	ids := make([]uint64, len(keys))
	values := make([][]Value, len(keys))
	for i, k := range keys {
		ids[i] = scan.ids[k.pos]
		values[i] = scan.values[k.pos]
	}
	scan.ids = ids
	scan.values = values
	return nil
}

// selectColumns resolves a select list onto output column names and their
// indices in meta.Cols — which is both how a reconstructed row is indexed
// and the set of columns the scan has to fetch.
func selectColumns(meta *tableMeta, items []sql.SelectItem) (cols []string, idx []int, err error) {
	for _, item := range items {
		if item.Star {
			for ci := range meta.Cols {
				cols = append(cols, meta.Cols[ci].Name)
				idx = append(idx, ci)
			}
			continue
		}
		if item.Col.Table != "" && item.Col.Table != meta.Name {
			return nil, nil, fmt.Errorf("%w: column %q does not belong to table %q",
				ErrNoSuchColumn, item.Col, meta.Name)
		}
		found := meta.colIndex(item.Col.Name)
		if found < 0 {
			return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchColumn, item.Col)
		}
		cols = append(cols, item.Col.Name)
		idx = append(idx, found)
	}
	return cols, idx, nil
}

// projectScan lowers reconstructed rows onto the select list resolved by
// selectColumns.
func projectScan(cols []string, idx []int, scan *scanResult) *Result {
	res := &Result{Columns: cols, Verified: scan.verified}
	for _, vals := range scan.values {
		row := make([]Value, len(idx))
		for i, ci := range idx {
			row[i] = vals[ci]
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// --- Aggregates ---

func (c *Client) execAggregates(meta *tableMeta, s *sql.Select) (*Result, error) {
	if err := c.flushTableLocked(meta.Name); err != nil {
		return nil, err
	}
	preds, err := c.compilePredicates(meta, s.Where, "")
	if err != nil {
		return nil, err
	}
	verified := s.Verified || c.opts.Verified
	// Provider-side partial aggregation handles a single pushed-down
	// interval predicate; residual predicates (including IN, whose pushed
	// range is a superset) or verified mode fall back to a scan plus
	// client-side aggregation (also the E8 baseline).
	clientSide := len(preds) > 1 || verified || c.forceClientAgg ||
		(len(preds) == 1 && preds[0].set != nil)
	var scan *scanResult
	if clientSide {
		cols, err := aggCols(meta, s.Items)
		if err != nil {
			return nil, err
		}
		scan, err = c.scanTable(meta, preds, c.readOpts(cols, 0, verified))
		if err != nil {
			return nil, err
		}
	}
	res := &Result{Verified: verified && scan != nil && scan.verified}
	row := make([]Value, 0, len(s.Items))
	for _, item := range s.Items {
		name := item.Agg.String() + "(" + item.Col.Name + ")"
		if item.Star {
			name = item.Agg.String() + "(*)"
		}
		res.Columns = append(res.Columns, name)
		var v Value
		if clientSide {
			v, err = c.aggregateLocal(meta, scan, item)
		} else {
			v, err = c.aggregateRemote(meta, preds, item)
		}
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	res.Rows = [][]Value{row}
	return res, nil
}

// aggItemCol resolves the aggregated column (nil for COUNT(*)).
func (meta *tableMeta) aggItemCol(item sql.SelectItem) (*colMeta, int, error) {
	if item.Star {
		return nil, -1, nil
	}
	if item.Col.Table != "" && item.Col.Table != meta.Name {
		return nil, -1, fmt.Errorf("%w: %q", ErrNoSuchColumn, item.Col)
	}
	ci := meta.colIndex(item.Col.Name)
	if ci < 0 {
		return nil, -1, fmt.Errorf("%w: %q", ErrNoSuchColumn, item.Col)
	}
	cm := &meta.Cols[ci]
	if !cm.queryable() {
		return nil, -1, fmt.Errorf("%w: aggregate over BLOB column %q", ErrUnsupported, cm.Name)
	}
	return cm, ci, nil
}

// aggCols lists the columns a client-side evaluation of the aggregates
// among items reads from a scan (COUNT(*) reads none).
func aggCols(meta *tableMeta, items []sql.SelectItem) ([]int, error) {
	var cols []int
	for _, item := range items {
		if item.Agg == sql.AggNone {
			continue
		}
		_, ci, err := meta.aggItemCol(item)
		if err != nil {
			return nil, err
		}
		if ci >= 0 {
			cols = append(cols, ci)
		}
	}
	return cols, nil
}

// sumBias is the encoding offset folded into SUM: every signed/decimal
// value is biased by 2^(bits-1), so a sum of `count` encodings carries
// count×bias of offset to strip.
func sumBias(cm *colMeta) uint64 { return uint64(1) << (cm.bits - 1) }

// maxSafeSumCount bounds how many rows a share-space SUM may cover before
// the true sum of encodings could wrap the field modulus.
func maxSafeSumCount(cm *colMeta) uint64 {
	return (field.Modulus - 1) >> cm.bits
}

// decodeSum strips the encoding bias from a reconstructed sum of encodings
// and returns the value (scaled integer semantics for decimals).
func decodeSum(cm *colMeta, sumEnc uint64, count uint64) (int64, error) {
	if count > maxSafeSumCount(cm) {
		return 0, fmt.Errorf("%w: SUM over %d rows with %d-bit domain", ErrValueOverflow, count, cm.bits)
	}
	bias := sumBias(cm)
	// sumEnc = Σ(v_i + bias) mod p; with the count bound above the true sum
	// cannot wrap, so the subtraction is exact over the integers.
	total := int64(sumEnc) - int64(bias*count)
	return total, nil
}

func (c *Client) aggregateRemote(meta *tableMeta, preds []compiledPred, item sql.SelectItem) (Value, error) {
	cm, _, err := meta.aggItemCol(item)
	if err != nil {
		return Value{}, err
	}
	for _, cp := range preds {
		if cp.empty {
			return emptyAggValue(item, cm)
		}
	}
	filters, err := c.providerFilters(meta, preds)
	if err != nil {
		return Value{}, err
	}
	req := func(op proto.AggOp) func(int) proto.Message {
		return func(i int) proto.Message {
			r := &proto.AggregateRequest{Table: meta.Name, Op: op, Filter: filters[i]}
			if cm != nil {
				r.OrderCol = cm.Name + suffixOPP
				r.ValueCol = cm.Name + suffixField
			}
			return r
		}
	}
	gather := func(op proto.AggOp) ([]indexedResponse, []*proto.AggResult, error) {
		responses, err := c.callQuorum(c.opts.K, req(op), c.readDeadline())
		if err != nil {
			return nil, nil, err
		}
		results := make([]*proto.AggResult, len(responses))
		for i, r := range responses {
			ar, ok := r.msg.(*proto.AggResult)
			if !ok {
				return nil, nil, fmt.Errorf("%w: provider %d returned %T", ErrInconsistent, r.provider, r.msg)
			}
			results[i] = ar
		}
		for i := 1; i < len(results); i++ {
			if results[i].Count != results[0].Count {
				return nil, nil, fmt.Errorf("%w: providers disagree on aggregate count (%d vs %d)",
					ErrInconsistent, results[0].Count, results[i].Count)
			}
		}
		return responses, results, nil
	}

	switch item.Agg {
	case sql.AggCount:
		_, results, err := gather(proto.AggCount)
		if err != nil {
			return Value{}, err
		}
		return IntValue(int64(results[0].Count)), nil

	case sql.AggSum, sql.AggAvg:
		if cm.Type == sql.TypeVarchar {
			return Value{}, fmt.Errorf("%w: %s over VARCHAR column %q", ErrUnsupported, item.Agg, cm.Name)
		}
		responses, results, err := gather(proto.AggSum)
		if err != nil {
			return Value{}, err
		}
		count := results[0].Count
		if count == 0 {
			return emptyAggValue(item, cm)
		}
		// Partial sums are shares of the true sum by linearity.
		shares := make([]secretshare.Share, len(responses))
		for i, r := range responses {
			shares[i] = secretshare.Share{Index: r.provider, Y: field.New(results[i].Sum)}
		}
		sumEnc, err := c.fieldSch.Reconstruct(shares)
		if err != nil {
			return Value{}, err
		}
		total, err := decodeSum(cm, sumEnc.Uint64(), count)
		if err != nil {
			return Value{}, err
		}
		if item.Agg == sql.AggAvg {
			total /= int64(count)
		}
		if cm.Type == sql.TypeDecimal {
			return DecimalValue(total, cm.Arg), nil
		}
		return IntValue(total), nil

	case sql.AggMin, sql.AggMax, sql.AggMedian:
		op := map[sql.AggFunc]proto.AggOp{
			sql.AggMin: proto.AggMin, sql.AggMax: proto.AggMax, sql.AggMedian: proto.AggMedian,
		}[item.Agg]
		responses, results, err := gather(op)
		if err != nil {
			return Value{}, err
		}
		if results[0].Count == 0 {
			return emptyAggValue(item, cm)
		}
		// Order preservation guarantees every provider picked the same row.
		for i := 1; i < len(results); i++ {
			if !results[i].HasRow || results[i].Row.ID != results[0].Row.ID {
				return Value{}, fmt.Errorf("%w: providers picked different %s rows", ErrInconsistent, item.Agg)
			}
		}
		// The partial carries the winning row's value share alone.
		shares := make([]secretshare.Share, len(responses))
		for i, r := range responses {
			if len(results[i].Row.Cells) != 1 {
				return Value{}, fmt.Errorf("%w: provider %d returned %d cells for %s", ErrInconsistent,
					r.provider, len(results[i].Row.Cells), item.Agg)
			}
			cell := results[i].Row.Cells[0]
			if len(cell) != 8 {
				return Value{}, fmt.Errorf("%w: provider %d returned a malformed share", ErrInconsistent, r.provider)
			}
			shares[i] = secretshare.Share{Index: r.provider, Y: field.New(beUint64(cell))}
		}
		u, err := c.fieldSch.Reconstruct(shares)
		if err != nil {
			return Value{}, err
		}
		return cm.decode(u.Uint64())

	default:
		return Value{}, fmt.Errorf("%w: aggregate %v", ErrUnsupported, item.Agg)
	}
}

// emptyAggValue renders an aggregate over zero rows: COUNT and SUM are 0,
// the rest have no defined value.
func emptyAggValue(item sql.SelectItem, cm *colMeta) (Value, error) {
	switch item.Agg {
	case sql.AggCount:
		return IntValue(0), nil
	case sql.AggSum:
		if cm != nil && cm.Type == sql.TypeDecimal {
			return DecimalValue(0, cm.Arg), nil
		}
		return IntValue(0), nil
	default:
		return Value{}, fmt.Errorf("%w: %s", ErrEmptyAggregate, item.Agg)
	}
}

// aggregateLocal computes an aggregate client-side from a reconstructed
// scan (fallback for residual predicates, verified mode, and the E8
// client-side baseline).
func (c *Client) aggregateLocal(meta *tableMeta, scan *scanResult, item sql.SelectItem) (Value, error) {
	cm, ci, err := meta.aggItemCol(item)
	if err != nil {
		return Value{}, err
	}
	count := uint64(len(scan.ids))
	if item.Agg == sql.AggCount {
		return IntValue(int64(count)), nil
	}
	if count == 0 {
		return emptyAggValue(item, cm)
	}
	switch item.Agg {
	case sql.AggSum, sql.AggAvg:
		if cm.Type == sql.TypeVarchar {
			return Value{}, fmt.Errorf("%w: %s over VARCHAR column %q", ErrUnsupported, item.Agg, cm.Name)
		}
		var total int64
		for r := range scan.values {
			total += scan.values[r][ci].I
		}
		if item.Agg == sql.AggAvg {
			total /= int64(count)
		}
		if cm.Type == sql.TypeDecimal {
			return DecimalValue(total, cm.Arg), nil
		}
		return IntValue(total), nil
	case sql.AggMin, sql.AggMax, sql.AggMedian:
		// Order by encoded value (== value order).
		type pair struct {
			enc uint64
			v   Value
		}
		pairs := make([]pair, 0, count)
		for r := range scan.values {
			u, err := cm.encode(scan.values[r][ci])
			if err != nil {
				return Value{}, err
			}
			pairs = append(pairs, pair{enc: u, v: scan.values[r][ci]})
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].enc < pairs[b].enc })
		switch item.Agg {
		case sql.AggMin:
			return pairs[0].v, nil
		case sql.AggMax:
			return pairs[len(pairs)-1].v, nil
		default:
			return pairs[(len(pairs)-1)/2].v, nil
		}
	default:
		return Value{}, fmt.Errorf("%w: aggregate %v", ErrUnsupported, item.Agg)
	}
}
