package client

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"sssdb/internal/field"
	"sssdb/internal/proto"
	"sssdb/internal/sql"
)

// ErrEmptyAggregate reports MIN/MAX/MEDIAN/AVG over zero rows.
var ErrEmptyAggregate = errors.New("client: aggregate over an empty row set")

// selectPlan is a single-table SELECT resolved against the catalog, once
// per statement: where it routes, what every routed group is asked for, and
// what the merged answer is finished with. A group answers with one of two
// mergeable partials — a scanResult (rows) or a []*group of aggregate buckets,
// an ungrouped aggregate's being the one bucket of a GROUP BY without a key;
// a join is planned as two of these (joinPlan), one per side.
type selectPlan struct {
	s    *sql.Select
	meta *tableMeta
	// targets are the routed groups, ascending, and route the shard-key
	// comparison that narrowed them (see routeGroups).
	targets  []int
	route    sql.CompareOp
	preds    []compiledPred
	verified bool
	// limit is the LIMIT of a plain select, the one a routed group's scan is
	// given (see limitAt); 0 for everything else.
	limit uint64
	// epochs, when non-nil, is a transaction's snapshot: group g's scan is
	// capped at epochs[g].
	epochs []uint64
	// fetch lists the columns a scan of this plan reads: the select list
	// (plus the ORDER BY column), or what client-side aggregation needs.
	fetch []int
	// flush pushes the table's buffered lazy updates before a scan, for
	// what is computed from the scan (aggregates, joins, audits); a plain
	// scan overlays them instead.
	flush bool

	// cols and idx are a plain select list as output names and meta.Cols
	// indices; oci is the ORDER BY column (-1 without one).
	cols []string
	idx  []int
	oci  int

	// computeItems, non-nil for an aggregate, are the items its buckets
	// compute (select list + HAVING); gcm and gci are the column that keys
	// the buckets — nil and -1 without GROUP BY: one bucket.
	gcm          *colMeta
	gci          int
	computeItems []sql.SelectItem
	// onProviders is the aggregate decision: the groups' providers reduce
	// the buckets in share space, rather than the client bucketing the
	// gathered matching rows.
	onProviders bool
}

// bucketed reports that the plan answers with buckets, not rows.
func (p *selectPlan) bucketed() bool { return p.computeItems != nil }

// exclusive is the plan's statement-lock mode. A plain scan tolerates
// concurrent INSERTs — the watermark hides partially landed rows by id — and
// only reads the lazy updates it overlays; aggregation and verified reads
// combine per-provider results with no ids to filter on, and a flush mutates.
func (p *selectPlan) exclusive() bool {
	return p.verified || p.bucketed() || p.flush
}

// residual lists the predicates the client re-checks after reconstruction
// (residualPreds).
func (p *selectPlan) residual() []compiledPred { return residualPreds(p.preds) }

// shipped is what each provider sends per row of the plan's scan: the value
// cells of the columns it reads and of its residual predicates', or every
// stored cell of a verified read (tableMeta.scanPlan).
func (p *selectPlan) shipped() fetchPlan {
	return p.meta.scanPlan(p.preds, p.fetch, p.verified)
}

// planSelect resolves a single-table SELECT. epochs is a transaction's
// snapshot of the table (nil outside one).
func (c *Client) planSelect(s *sql.Select, epochs []uint64) (*selectPlan, error) {
	meta, err := c.cat.table(s.Table)
	if err != nil {
		return nil, err
	}
	// A snapshot read is never verified, whatever Options.Verified says: a
	// completeness proof covers the table as it is now, not as of an epoch.
	p := &selectPlan{s: s, meta: meta, verified: (s.Verified || c.opts.Verified) && epochs == nil, epochs: epochs, oci: -1}
	aggregate := s.GroupBy != nil
	for _, item := range s.Items {
		aggregate = aggregate || item.Agg != sql.AggNone
	}
	if aggregate {
		if p.gcm, p.gci, p.computeItems, err = planBuckets(meta, s); err != nil {
			return nil, err
		}
	}
	p.flush = aggregate
	if p.preds, err = compilePredicates(meta, s.Where, ""); err != nil {
		return nil, err
	}
	p.targets, p.route = c.routeGroups(meta, s.Where)
	switch {
	case aggregate:
		// Provider-side reduction handles a single pushed-down interval
		// predicate; residual predicates (including IN, whose pushed range is
		// a superset) or verified mode fall back to a scan plus client-side
		// bucketing (also the E8 baseline).
		p.onProviders = len(p.preds) <= 1 && !(len(p.preds) == 1 && p.preds[0].set != nil) &&
			!p.verified && !c.forceClientAgg.Load()
		for _, item := range p.computeItems {
			if item.Agg == sql.AggMedian && len(p.targets) > 1 {
				// A median cannot be combined from per-group medians; gather
				// the matching rows instead.
				p.onProviders = false
			}
		}
		// A client-side evaluation reads the columns its reductions reduce —
		// not a COUNT's, which reads none — and the key.
		reds, err := meta.reductions(p.computeItems)
		if err != nil {
			return nil, err
		}
		for _, red := range reds {
			p.fetch = append(p.fetch, meta.colIndex(red.cm.Name))
		}
		if p.gcm != nil {
			p.fetch = append(p.fetch, p.gci)
		}
	default:
		if p.cols, p.idx, err = selectColumns(meta, s.Items); err != nil {
			return nil, err
		}
		p.fetch, p.limit = p.idx, s.Limit
		if s.OrderBy != nil {
			if p.oci, err = orderColumn(meta, s.OrderBy); err != nil {
				return nil, err
			}
			p.fetch = append(slices.Clip(p.idx), p.oci)
		}
	}
	return p, nil
}

// execSelect runs one SELECT through the pipeline: plan, scatter to the
// routed groups, merge, finish.
func (c *Client) execSelect(s *sql.Select, epochs []uint64) (*Result, error) {
	if s.Join != nil {
		return c.execJoin(s)
	}
	p, err := c.planSelect(s, epochs)
	if err != nil {
		return nil, err
	}
	return c.runSelect(p)
}

// runSelect executes a planned SELECT.
func (c *Client) runSelect(p *selectPlan) (*Result, error) {
	s, meta := p.s, p.meta
	switch {
	case p.bucketed():
		var groups []*group
		verified := false
		if p.onProviders {
			parts := make([][]*group, len(p.targets))
			err := c.scatter(p.targets, p.exclusive(), []*tableMeta{meta}, func(i int, e *engine) (err error) {
				if err := e.flushTableLocked(meta.Name); err != nil {
					return err
				}
				parts[i], err = e.groupedRemote(meta, p.gcm, p.preds, p.computeItems)
				return err
			})
			if err != nil {
				return nil, err
			}
			if groups, err = mergeGroups(parts); err != nil {
				return nil, err
			}
		} else {
			scan, err := c.gather(p)
			if err != nil {
				return nil, err
			}
			verified = scan.verified
			if groups, err = groupedFromScan(meta, p.gcm, p.gci, scan, p.computeItems); err != nil {
				return nil, err
			}
		}
		if p.gcm == nil && len(groups) == 0 {
			// Without a key, no matching row is still one bucket.
			groups = []*group{{}}
		}
		return renderGroups(meta, s, groups, verified)

	default:
		// Each group's scan stops where limitAt lets it; the exact cut is
		// made here, on the merged rows.
		scan, err := c.gather(p)
		if err != nil {
			return nil, err
		}
		if p.oci >= 0 {
			// Ties between equal sort keys from different groups are broken
			// by each group's private row ids, so cross-group tie order is
			// unspecified.
			if err := orderScan(meta, scan, p.oci, s.OrderBy.Desc, p.limit); err != nil {
				return nil, err
			}
		} else if p.limit > 0 && uint64(len(scan.ids)) > p.limit {
			scan.ids, scan.values = scan.ids[:p.limit], scan.values[:p.limit]
		}
		return projectScan(p.cols, p.idx, scan), nil
	}
}

// gather runs the plan's scan in every routed group, under the plan's lock
// mode, and merges the row partials.
func (c *Client) gather(p *selectPlan) (*scanResult, error) {
	scans := make([]*scanResult, len(p.targets))
	err := c.scatter(p.targets, p.exclusive(), []*tableMeta{p.meta}, func(i int, e *engine) (err error) {
		scans[i], err = e.scanPlan(p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return c.mergeScans(scans, p.targets), nil
}

// scanPlan runs the plan's scan in this group; the caller holds the group's
// statement lock.
func (e *engine) scanPlan(p *selectPlan) (*scanResult, error) {
	if p.flush {
		if err := e.flushTableLocked(p.meta.Name); err != nil {
			return nil, err
		}
	}
	o, _ := e.planOpts(p)
	return e.scanTable(p.meta, p.preds, o)
}

// planOpts is the scanOpts of the plan's scan in this group, and why its
// LIMIT stays off the providers (limitAt); the caller holds the group's
// statement lock. The deadline is fixed here, once: a scan that re-opens
// after a provider failure shares it, so failover cannot extend the budget.
func (e *engine) planOpts(p *selectPlan) (scanOpts, string) {
	o := scanOpts{fetch: p.shipped(), verified: p.verified, epoch: noEpoch, deadline: e.readDeadline()}
	if p.epochs != nil {
		o.epoch = p.epochs[e.g]
	}
	var why string
	o.limit, o.push, why = limitAt(p.limit, p.preds, p.verified, p.oci >= 0, len(e.pending[p.meta.Name]) > 0)
	return o, why
}

// limitWhy is where the plan's LIMIT applies in its routed groups as they
// stand — the reason planOpts gives for keeping it off the providers, ""
// when they receive it — looked up under the plan's own statement locks.
func (c *Client) limitWhy(p *selectPlan) (string, error) {
	whys := make([]string, len(p.targets))
	err := c.scatter(p.targets, p.exclusive(), []*tableMeta{p.meta}, func(i int, e *engine) error {
		_, whys[i] = e.planOpts(p)
		return nil
	})
	return cmp.Or(whys...), err
}

// mergeScans merges row partials: concatenation in target order (cross-group
// row order is unspecified, like scan order), the identity on one. Faulty
// provider indices are remapped onto the flat global numbering (group*N +
// provider).
func (c *Client) mergeScans(scans []*scanResult, targets []int) *scanResult {
	out := scans[0]
	for i, s := range scans {
		for j := range s.faulty {
			s.faulty[j] += targets[i] * c.opts.N
		}
		if i > 0 {
			out.ids = append(out.ids, s.ids...)
			out.values = append(out.values, s.values...)
			out.faulty = append(out.faulty, s.faulty...)
			out.verified = out.verified && s.verified
		}
	}
	return out
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
	slices.SortFunc(keys, func(a, b keyed) int {
		if desc {
			a.enc, b.enc = b.enc, a.enc
		}
		return cmp.Or(cmp.Compare(a.enc, b.enc), cmp.Compare(a.id, b.id))
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

// aggItemCol resolves the aggregated column (nil for COUNT(*)).
func (meta *tableMeta) aggItemCol(item sql.SelectItem) (*colMeta, error) {
	if item.Star {
		return nil, nil
	}
	if item.Col.Table != "" && item.Col.Table != meta.Name {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchColumn, item.Col)
	}
	ci := meta.colIndex(item.Col.Name)
	if ci < 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchColumn, item.Col)
	}
	cm := &meta.Cols[ci]
	if !cm.queryable() {
		return nil, fmt.Errorf("%w: aggregate over BLOB column %q", ErrUnsupported, cm.Name)
	}
	return cm, nil
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

// aggregateLocal reduces one bucket's rows (never none) of a reconstructed
// scan client-side — the fallback for residual predicates, verified mode, a
// MEDIAN over several groups, and the E8 client-side baseline.
func aggregateLocal(red reduction, ci int, rows [][]Value) (Value, error) {
	if red.op == proto.AggSum {
		var total int64
		for _, row := range rows {
			total += row[ci].I
		}
		return IntValue(total), nil
	}
	// Order by encoded value (== value order).
	type pair struct {
		enc uint64
		v   Value
	}
	pairs := make([]pair, len(rows))
	for r, row := range rows {
		enc, err := red.cm.encode(row[ci])
		if err != nil {
			return Value{}, err
		}
		pairs[r] = pair{enc: enc, v: row[ci]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].enc < pairs[b].enc })
	switch red.op {
	case proto.AggMin:
		return pairs[0].v, nil
	case proto.AggMax:
		return pairs[len(pairs)-1].v, nil
	default:
		return pairs[(len(pairs)-1)/2].v, nil
	}
}
