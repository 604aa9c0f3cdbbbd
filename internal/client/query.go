package client

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"sssdb/internal/field"
	"sssdb/internal/merkle"
	"sssdb/internal/proto"
	"sssdb/internal/secretshare"
	"sssdb/internal/sql"
	"sssdb/internal/store"
)

// compiledPred is a predicate lowered onto a column's numeric domain:
// match iff lo <= enc(value) <= hi, and — when set is non-nil (IN) —
// enc(value) is a member of set. The [lo, hi] interval always covers the
// set, so the interval can be pushed to providers as a superset filter with
// exact membership enforced client-side. empty marks a provably empty
// predicate.
type compiledPred struct {
	ci    int // column index in meta.Cols
	lo    uint64
	hi    uint64
	set   []uint64 // sorted distinct members (OpIn only)
	empty bool
}

// compilePredicates lowers WHERE conjuncts onto domain intervals — once per
// statement: the result depends on the schema alone, so every routed group
// is handed the same compiled predicates. qualifier is the table name
// predicates may be qualified with ("" accepts only unqualified columns). A
// provably empty conjunct empties the whole WHERE, so it is returned alone:
// a reader tests preds[0].empty (see emptyWhere).
func compilePredicates(meta *tableMeta, preds []sql.Predicate, qualifier string) ([]compiledPred, error) {
	out := make([]compiledPred, 0, len(preds))
	for _, p := range preds {
		if p.Col.Table != "" && p.Col.Table != meta.Name && p.Col.Table != qualifier {
			return nil, fmt.Errorf("%w: predicate on %q does not reference table %q",
				ErrUnsupported, p.Col, meta.Name)
		}
		cp, err := compilePredicate(meta, p)
		if err != nil {
			return nil, err
		}
		out = append(out, cp)
	}
	for _, cp := range out {
		if cp.empty {
			return []compiledPred{cp}, nil
		}
	}
	return out, nil
}

// emptyWhere reports compiled predicates no row can match.
func emptyWhere(preds []compiledPred) bool { return len(preds) > 0 && preds[0].empty }

func compilePredicate(meta *tableMeta, p sql.Predicate) (compiledPred, error) {
	cm, err := meta.col(p.Col.Name)
	if err != nil {
		return compiledPred{}, err
	}
	if !cm.queryable() {
		return compiledPred{}, fmt.Errorf("%w: BLOB column %q cannot be filtered", ErrUnsupported, cm.Name)
	}
	ci := meta.colIndex(cm.Name)
	domMin, domMax := cm.domainBounds()
	cp := compiledPred{ci: ci}
	if p.Op == sql.OpLikePrefix {
		if cm.Type != sql.TypeVarchar {
			return compiledPred{}, fmt.Errorf("%w: LIKE on non-VARCHAR column %q", ErrUnsupported, cm.Name)
		}
		lo, hi, err := cm.strCodec.PrefixRange(p.Lo.Text)
		if err != nil {
			return compiledPred{}, fmt.Errorf("%w: %v", ErrTypeMismatch, err)
		}
		cp.lo, cp.hi = lo, hi
		return cp, nil
	}
	if p.Op == sql.OpIn {
		if len(p.List) == 0 {
			cp.empty = true
			return cp, nil
		}
		seen := make(map[uint64]bool, len(p.List))
		for _, lit := range p.List {
			v, err := cm.parseValue(lit)
			if err != nil {
				return compiledPred{}, err
			}
			enc, err := cm.encode(v)
			if err != nil {
				return compiledPred{}, err
			}
			if !seen[enc] {
				seen[enc] = true
				cp.set = append(cp.set, enc)
			}
		}
		sort.Slice(cp.set, func(i, j int) bool { return cp.set[i] < cp.set[j] })
		cp.lo, cp.hi = cp.set[0], cp.set[len(cp.set)-1]
		return cp, nil
	}
	loVal, err := cm.parseValue(p.Lo)
	if err != nil {
		return compiledPred{}, err
	}
	loEnc, err := cm.encode(loVal)
	if err != nil {
		return compiledPred{}, err
	}
	switch p.Op {
	case sql.OpEq:
		cp.lo, cp.hi = loEnc, loEnc
	case sql.OpLt:
		if loEnc == domMin {
			cp.empty = true
			return cp, nil
		}
		cp.lo, cp.hi = domMin, loEnc-1
	case sql.OpLe:
		cp.lo, cp.hi = domMin, loEnc
	case sql.OpGt:
		if loEnc == domMax {
			cp.empty = true
			return cp, nil
		}
		cp.lo, cp.hi = loEnc+1, domMax
	case sql.OpGe:
		cp.lo, cp.hi = loEnc, domMax
	case sql.OpBetween:
		hiVal, err := cm.parseValue(p.Hi)
		if err != nil {
			return compiledPred{}, err
		}
		hiEnc, err := cm.encode(hiVal)
		if err != nil {
			return compiledPred{}, err
		}
		if cm.Type == sql.TypeVarchar {
			// String BETWEEN covers every string prefixed by the high bound
			// (SQL trailing-pad semantics; paper's "between Albert and Jack").
			l, h, err := cm.strCodec.BetweenRange(loVal.S, hiVal.S)
			if err != nil {
				return compiledPred{}, fmt.Errorf("%w: %v", ErrTypeMismatch, err)
			}
			loEnc, hiEnc = l, h
		}
		if hiEnc < loEnc {
			cp.empty = true
			return cp, nil
		}
		cp.lo, cp.hi = loEnc, hiEnc
	default:
		return compiledPred{}, fmt.Errorf("%w: operator %v", ErrUnsupported, p.Op)
	}
	return cp, nil
}

// matchesEnc reports whether one encoded value satisfies the predicate.
func (cp compiledPred) matchesEnc(u uint64) bool {
	if cp.empty || u < cp.lo || u > cp.hi {
		return false
	}
	if cp.set != nil {
		i := sort.Search(len(cp.set), func(j int) bool { return cp.set[j] >= u })
		return i < len(cp.set) && cp.set[i] == u
	}
	return true
}

// providerFilters is the paper's query rewriting step: it lowers the first
// compiled predicate into one share-space filter per provider (all nil
// when there are no predicates). Bounds are within the domain by
// construction, so errors here are programming errors.
func (e *engine) providerFilters(meta *tableMeta, preds []compiledPred) ([]*proto.Filter, error) {
	filters := make([]*proto.Filter, e.opts.N)
	if len(preds) == 0 {
		return filters, nil
	}
	cp := preds[0]
	cm := &meta.Cols[cp.ci]
	for p := range filters {
		lo, hi, err := cm.shareBounds(p, cp.lo, cp.hi)
		if err != nil {
			return nil, err
		}
		f := &proto.Filter{Col: cm.Name + suffixOPP, Op: proto.FilterEq, Lo: lo}
		if cp.lo != cp.hi {
			f.Op = proto.FilterRange
			f.Hi = hi
		}
		filters[p] = f
	}
	return filters, nil
}

// scanResult is the reconstructed output of a table scan.
type scanResult struct {
	ids []uint64
	// values holds one typed row per id, indexed like meta.Cols. Only the
	// columns the scan fetched (scanOpts.fetch) are set; a verified scan and
	// pending lazy updates set all of them.
	values [][]Value
	// faulty lists providers whose shares were identified as corrupt
	// during robust reconstruction (verified mode).
	faulty []int
	// verified reports that verification ran and passed.
	verified bool
}

// scanOpts are the per-statement knobs of a table scan.
type scanOpts struct {
	// fetch is what each provider ships per row: the cells of the columns
	// the caller reads and the scan's residual predicates test, none for
	// row ids only, every stored cell for a verified scan.
	fetch fetchPlan
	// limit is how many result rows the scan may stop after, and push the
	// bound each provider is sent (0 = none for either; see limitAt).
	limit, push uint64
	// verified selects the proof-carrying whole-response path.
	verified bool
	// epoch hides rows with ids at or above it, which is what gives reads
	// inside a transaction snapshot isolation: the epoch is the table's
	// stable watermark captured at Begin, so everything committed since
	// reads as absent. noEpoch disables the cap.
	epoch uint64
	// deadline bounds the scan end to end (noDeadline = unbounded).
	deadline time.Time
}

// limitAt is the one placement of a scan's LIMIT, for the executor and
// EXPLAIN alike: the result rows the scan may stop after, the bound each
// provider is sent, and why the providers are not sent it ("" when they are).
// The caller cuts the merged rows. sorted is an ORDER BY; pending, lazy
// updates buffered for the table in the group scanned.
func limitAt(limit uint64, preds []compiledPred, verified, sorted, pending bool) (stop, push uint64, why string) {
	switch {
	case limit == 0:
		return 0, 0, ""
	case verified:
		return 0, 0, "a completeness proof covers the whole range"
	case sorted:
		return 0, 0, "the sort must see every matching row"
	case pending:
		return 0, 0, "buffered lazy updates may drop or add rows after the scan"
	case len(residualPreds(preds)) > 0:
		return limit, 0, "residual predicates drop rows after reconstruction"
	}
	return limit, limit, ""
}

// readQuorum is how many of a group's providers a read asks: K, or every
// one for a verified read, so faulty providers can be dropped while a quorum
// survives.
func (o *Options) readQuorum(verified bool) int {
	if verified {
		return o.N
	}
	return o.K
}

// scanTable runs the paper's core read path: rewrite the (first) predicate
// into per-provider share filters, scan a quorum, align rows by id, and
// reconstruct values. Residual predicates are evaluated client-side.
//
// Every unverified scan drains the streaming zipper (stream.go), which owns
// provider failover, hedging, watermark masking and LIMIT push-down.
// Verified scans are the one genuinely different algorithm — a Merkle
// completeness proof covers a whole response, and every live provider is
// consulted so corrupt ones can be outvoted — and take scanVerified. Both
// are post-processed the same way: pending lazy updates overlay the result.
// The caller cuts it to its LIMIT.
func (e *engine) scanTable(meta *tableMeta, preds []compiledPred, o scanOpts) (*scanResult, error) {
	if emptyWhere(preds) {
		return &scanResult{verified: o.verified}, nil
	}
	var res *scanResult
	var err error
	if o.verified {
		res, err = e.scanVerified(meta, preds, o)
	} else {
		res, err = e.collectStream(meta, preds, o)
	}
	if err != nil {
		return nil, err
	}
	// Lazy-update overlay: replace pending rows' values and re-evaluate the
	// whole predicate set; add pending rows that now match.
	if err := e.overlayPending(meta, res, preds); err != nil {
		return nil, err
	}
	return res, nil
}

// scanVerified gathers whole proof-carrying responses from every reachable
// non-lagging provider in one round, checks each one's shape and Merkle
// completeness proof, keeps the majority row set, and robust-reconstructs
// cells to identify corrupt providers. The caller holds the exclusive
// statement lock, so no insert is in flight and no row needs masking. A
// completeness proof covers a whole range, so no LIMIT is pushed down. Whole
// rows are fetched (o.fetch) whatever the caller reads: the proof's leaf
// digest hashes every cell, the range check reads the order-preserving one,
// and robust reconstruction of every column is what identifies a corrupt
// provider.
func (e *engine) scanVerified(meta *tableMeta, preds []compiledPred, o scanOpts) (*scanResult, error) {
	if len(preds) == 0 {
		// Synthesize a full-domain range on the first queryable column so
		// the provider can attach a completeness proof.
		for ci := range meta.Cols {
			if meta.Cols[ci].queryable() {
				lo, hi := meta.Cols[ci].domainBounds()
				preds = append(preds, compiledPred{ci: ci, lo: lo, hi: hi})
				break
			}
		}
		if len(preds) == 0 {
			return nil, fmt.Errorf("%w: cannot verify a table with no queryable columns", ErrUnsupported)
		}
	}
	filters, err := e.providerFilters(meta, preds)
	if err != nil {
		return nil, err
	}
	responses, err := e.collectWhole(e.opts.K, e.opts.readQuorum(true), func(i int) proto.Message {
		return &proto.ScanRequest{Table: meta.Name, Filter: filters[i], WithProof: true}
	}, o.deadline)
	if err != nil {
		return nil, err
	}
	// Detection AND recovery: drop providers whose answers are malformed,
	// whose completeness proofs fail or that disagree with the majority row
	// set, as long as a quorum of K honest-looking providers remains.
	providers, resps, faulty, err := e.applyVerification(meta, preds, &o.fetch, responses)
	if err != nil {
		return nil, err
	}
	res, err := e.reconstructRows(meta, &o.fetch, providers, resps, true)
	if err != nil {
		return nil, err
	}
	// The providers dropped before reconstruction and those it caught are
	// disjoint.
	res.faulty = append(res.faulty, faulty...)
	sort.Ints(res.faulty)
	res.verified = true
	if err := e.filterResidual(meta, res, residualPreds(preds)); err != nil {
		return nil, err
	}
	return res, nil
}

// reconstructRows is the one place provider rows are checked and combined:
// several providers' answers to one request — a projected stream batch, one
// side of the joined pairs, a verified whole-row response — become typed
// values for the columns of plan (resps[i] is providers[i]'s). Every answer
// must carry the asked-for header, one cell per column in every row, and the
// first answer's row count and id at every position; all of it is checked
// before any cell is read, and a breach is ErrInconsistent. The per-cell work
// — Lagrange combination (or robust reconstruction) plus domain decoding — is
// independent across rows, so the row range is chunked across the worker
// pool. Each worker owns a contiguous span with its own share scratch buffer
// and its own faulty set; spans share the precomputed quorum Lagrange weights,
// and the faulty sets merge after the join, so the result is identical to the
// serial pass in both modes.
func (e *engine) reconstructRows(meta *tableMeta, plan *fetchPlan, providers []int, resps []*proto.RowsResponse, robust bool) (*scanResult, error) {
	base := resps[0]
	for i, rr := range resps {
		if err := checkShape(providers[i], rr, plan.names); err != nil {
			return nil, err
		}
		if len(rr.Rows) != len(base.Rows) {
			return nil, fmt.Errorf("%w: provider %d sent %d rows, provider %d sent %d",
				ErrInconsistent, providers[i], len(rr.Rows), providers[0], len(base.Rows))
		}
		for r, row := range rr.Rows {
			if row.ID != base.Rows[r].ID {
				return nil, fmt.Errorf("%w: row order diverges at id %d (provider %d vs %d)",
					ErrInconsistent, base.Rows[r].ID, providers[0], providers[i])
			}
		}
	}
	weights, err := e.fieldSch.WeightsFor(providers[:e.opts.K])
	if err != nil {
		return nil, err
	}
	res := &scanResult{
		ids:    make([]uint64, len(base.Rows)),
		values: make([][]Value, len(base.Rows)),
	}
	var faultyMu sync.Mutex
	faulty := map[int]bool{}
	err = parallelChunks(e.opts.ParallelWorkers, len(base.Rows), func(start, end int) error {
		ys := make([]field.Element, e.opts.K)
		chunkFaulty := map[int]bool{}
		// One slab holds the span's rows; each row is capped to its own slots.
		width := len(meta.Cols)
		slab := make([]Value, (end-start)*width)
		for r := start; r < end; r++ {
			id := base.Rows[r].ID
			vals := slab[(r-start)*width : (r-start+1)*width : (r-start+1)*width]
			for ci, cell := range plan.cell {
				if cell < 0 {
					continue
				}
				cm := &meta.Cols[ci]
				if !cm.queryable() {
					blob, err := e.openBlob(meta, base.Rows[r].Cells[cell])
					if err != nil {
						return err
					}
					if robust {
						for i, rr := range resps[1:] {
							if !bytes.Equal(rr.Rows[r].Cells[cell], base.Rows[r].Cells[cell]) {
								chunkFaulty[providers[i+1]] = true
							}
						}
					}
					vals[ci] = BytesValue(blob)
					continue
				}
				var u uint64
				if robust {
					shares := make([]secretshare.Share, 0, len(resps))
					for i, rr := range resps {
						cellBytes := rr.Rows[r].Cells[cell]
						if len(cellBytes) != 8 {
							chunkFaulty[providers[i]] = true
							continue
						}
						shares = append(shares, secretshare.Share{
							Index: providers[i],
							Y:     field.New(beUint64(cellBytes)),
						})
					}
					rr, err := e.fieldSch.ReconstructRobust(shares)
					if err != nil {
						return fmt.Errorf("%w: row %d column %q: %v", ErrVerification, id, cm.Name, err)
					}
					for _, f := range rr.Faulty {
						chunkFaulty[f] = true
					}
					u = rr.Secret.Uint64()
				} else {
					for i, rr := range resps[:e.opts.K] {
						cellBytes := rr.Rows[r].Cells[cell]
						if len(cellBytes) != 8 {
							return fmt.Errorf("%w: provider %d returned a malformed share", ErrInconsistent, providers[i])
						}
						ys[i] = field.New(beUint64(cellBytes))
					}
					el, err := secretshare.CombineShares(weights, ys)
					if err != nil {
						return err
					}
					u = el.Uint64()
				}
				v, err := cm.decode(u)
				if err != nil {
					return fmt.Errorf("%w: row %d column %q: %v", ErrVerification, id, cm.Name, err)
				}
				vals[ci] = v
			}
			res.ids[r] = id
			res.values[r] = vals
		}
		if len(chunkFaulty) > 0 {
			faultyMu.Lock()
			for p := range chunkFaulty {
				faulty[p] = true
			}
			faultyMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p := range faulty {
		res.faulty = append(res.faulty, p)
	}
	sort.Ints(res.faulty)
	return res, nil
}

// checkShape rejects a provider answer that is not exactly what was asked
// for: a column header other than the projection, or a row with other than
// one cell per projected column. Cell positions are resolved from the request
// alone, so no cell may be read before this passes.
func checkShape(provider int, rr *proto.RowsResponse, asked []string) error {
	if !slices.Equal(rr.Columns, asked) {
		return fmt.Errorf("%w: provider %d answered with columns %v, asked for %v",
			ErrInconsistent, provider, rr.Columns, asked)
	}
	for _, row := range rr.Rows {
		if len(row.Cells) != len(asked) {
			return fmt.Errorf("%w: provider %d sent row %d with %d cells under a %d-column header",
				ErrInconsistent, provider, row.ID, len(row.Cells), len(asked))
		}
	}
	return nil
}

func beUint64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

// applyVerification checks each provider's answer on its own — the asked-for
// message, its shape, then its completeness proof — and drops the failures, a
// malformed answer being as faulty as a failed proof; then it keeps the
// majority table size and row-id sequence among the survivors, whose answers
// it returns with them. It errors only when fewer than K trustworthy
// providers remain.
func (e *engine) applyVerification(meta *tableMeta, preds []compiledPred, plan *fetchPlan, responses []*slot) (providers []int, resps []*proto.RowsResponse, faulty []int, err error) {
	// Majority vote on the table size and the row-id sequence: each
	// signature maps to the responses (by index) that carry it.
	groups := make(map[string][]int)
	answers := make([]*proto.RowsResponse, len(responses))
	kept := 0
	for i, r := range responses {
		rr, err := as[*proto.RowsResponse](r.p, r.msg)
		if err == nil {
			err = checkShape(r.p, rr, plan.names)
		}
		var count uint64
		if err == nil {
			count, err = e.verifyProviderScan(meta, preds, r.p, rr)
		}
		if err != nil {
			faulty = append(faulty, r.p)
			continue
		}
		kept++
		answers[i] = rr
		sig := rowSignature(count, rr.Rows)
		groups[sig] = append(groups[sig], i)
	}
	var best string
	for sig, members := range groups {
		if len(members) > len(groups[best]) {
			best = sig
		}
	}
	for sig, members := range groups {
		for _, i := range members {
			if sig != best {
				faulty = append(faulty, responses[i].p)
				continue
			}
			providers = append(providers, responses[i].p)
			resps = append(resps, answers[i])
		}
	}
	sort.Ints(faulty)
	if len(providers) < e.opts.K {
		return nil, nil, nil, fmt.Errorf("%w: only %d of %d required providers verified (faulty: %v)",
			ErrVerification, len(providers), e.opts.K, faulty)
	}
	if len(groups) > 1 && 2*len(providers) <= kept {
		return nil, nil, nil, fmt.Errorf("%w: no majority row set among providers", ErrVerification)
	}
	return providers, resps, faulty, nil
}

func rowSignature(count uint64, rows []proto.Row) string {
	b := binary.BigEndian.AppendUint64(nil, count)
	for _, r := range rows {
		b = binary.BigEndian.AppendUint64(b, r.ID)
	}
	return string(b)
}

// verifyProviderScan checks one provider's Merkle completeness proof: its
// run — left fence, the rows it answered, right fence — must recompute the
// root the proof was cut under. It returns the proof's leaf count: the proof
// shows nothing is missing from the range of a table that many rows long,
// the caller's vote across providers that none is missing outside it.
func (e *engine) verifyProviderScan(meta *tableMeta, preds []compiledPred, p int, resp *proto.RowsResponse) (uint64, error) {
	cp := preds[0]
	cm := &meta.Cols[cp.ci]
	spec := meta.providerSpec()
	oppIdx := spec.ColumnIndex(cm.Name + suffixOPP)
	if resp.Proof == nil {
		return 0, fmt.Errorf("%w: provider %d sent no completeness proof", ErrVerification, p)
	}
	proof, err := merkle.UnmarshalRangeProof(resp.Proof)
	if err != nil {
		return 0, fmt.Errorf("%w: provider %d: %v", ErrVerification, p, err)
	}
	// Rebuild the leaf run: left fence, matched rows, right fence.
	var run []merkle.Hash
	if proof.LeftFence != nil {
		run = append(run, merkle.LeafHash(proof.LeftFence.Key, proof.LeftFence.RowDigest))
	}
	lo, hi, err := cm.shareBounds(p, cp.lo, cp.hi)
	if err != nil {
		return 0, err
	}
	for _, row := range resp.Rows {
		cell := row.Cells[oppIdx]
		// The returned rows must actually lie inside the queried range;
		// otherwise a provider could substitute other committed rows.
		if len(cell) != len(lo) || bytes.Compare(cell, lo) < 0 || bytes.Compare(cell, hi) > 0 {
			return 0, fmt.Errorf("%w: provider %d returned a row outside the range", ErrVerification, p)
		}
		run = append(run, merkle.LeafHash(store.ProofLeaf(nil, cell, row)))
	}
	if proof.RightFence != nil {
		run = append(run, merkle.LeafHash(proof.RightFence.Key, proof.RightFence.RowDigest))
	}
	// Fences must be strictly outside the range (completeness at the
	// boundary) unless the run touches a tree edge.
	if proof.LeftFence != nil {
		if len(proof.LeftFence.Key) <= 8 {
			return 0, fmt.Errorf("%w: provider %d sent a malformed left fence", ErrVerification, p)
		}
		fenceCell := proof.LeftFence.Key[:len(proof.LeftFence.Key)-8]
		if len(fenceCell) != len(lo) || bytes.Compare(fenceCell, lo) >= 0 {
			return 0, fmt.Errorf("%w: provider %d left fence inside range", ErrVerification, p)
		}
	} else if proof.Start != 0 {
		return 0, fmt.Errorf("%w: provider %d omitted its left fence", ErrVerification, p)
	}
	if proof.RightFence != nil {
		if len(proof.RightFence.Key) <= 8 {
			return 0, fmt.Errorf("%w: provider %d sent a malformed right fence", ErrVerification, p)
		}
		fenceCell := proof.RightFence.Key[:len(proof.RightFence.Key)-8]
		if len(fenceCell) != len(hi) || bytes.Compare(fenceCell, hi) <= 0 {
			return 0, fmt.Errorf("%w: provider %d right fence inside range", ErrVerification, p)
		}
	} else if proof.Start+uint64(len(run)) != proof.N {
		return 0, fmt.Errorf("%w: provider %d omitted its right fence", ErrVerification, p)
	}
	root, err := merkle.VerifyRange(int(proof.N), int(proof.Start), run, proof.Hashes)
	if err != nil {
		return 0, fmt.Errorf("%w: provider %d: %v", ErrVerification, p, err)
	}
	if root != proof.Root {
		return 0, fmt.Errorf("%w: provider %d proof does not match its root", ErrVerification, p)
	}
	return proof.N, nil
}

// residualPreds returns the predicates the providers did not apply, for the
// client to re-check: everything after the pushed first predicate — plus
// the first itself when it is an IN set, since the provider only saw its
// covering range.
func residualPreds(preds []compiledPred) []compiledPred {
	if len(preds) > 0 && preds[0].set == nil {
		return preds[1:]
	}
	return preds
}

// predCols lists the columns a set of predicates tests.
func predCols(preds []compiledPred) []int {
	cols := make([]int, len(preds))
	for i, cp := range preds {
		cols[i] = cp.ci
	}
	return cols
}

// filterResidual applies remaining predicates client-side.
func (e *engine) filterResidual(meta *tableMeta, res *scanResult, preds []compiledPred) error {
	if len(preds) == 0 {
		return nil
	}
	outIDs := res.ids[:0]
	outVals := res.values[:0]
	enc := make([]uint64, len(meta.Cols))
	for r := range res.ids {
		ok, err := e.rowMatches(meta, res.values[r], preds, enc)
		if err != nil {
			return err
		}
		if ok {
			outIDs = append(outIDs, res.ids[r])
			outVals = append(outVals, res.values[r])
		}
	}
	res.ids = outIDs
	res.values = outVals
	return nil
}

// rowMatches evaluates compiled predicates on typed values by re-encoding.
func (e *engine) rowMatches(meta *tableMeta, vals []Value, preds []compiledPred, scratch []uint64) (bool, error) {
	for _, cp := range preds {
		cm := &meta.Cols[cp.ci]
		u, err := cm.encode(vals[cp.ci])
		if err != nil {
			return false, err
		}
		scratch[cp.ci] = u
		if !cp.matchesEnc(u) {
			return false, nil
		}
	}
	return true, nil
}

// overlayPending merges buffered lazy updates into a scan result. Pending
// rows are copied in: the result outlives the statement lock that guards the
// buffer, and a later UPDATE rewrites buffered rows in place.
func (e *engine) overlayPending(meta *tableMeta, res *scanResult, preds []compiledPred) error {
	pend := e.pending[meta.Name]
	if len(pend) == 0 {
		return nil
	}
	enc := make([]uint64, len(meta.Cols))
	outIDs := make([]uint64, 0, len(res.ids))
	outVals := make([][]Value, 0, len(res.values))
	covered := make(map[uint64]bool, len(res.ids))
	for r, id := range res.ids {
		covered[id] = true
		if newVals, ok := pend[id]; ok {
			match, err := e.rowMatches(meta, newVals, preds, enc)
			if err != nil {
				return err
			}
			if match {
				outIDs = append(outIDs, id)
				outVals = append(outVals, slices.Clone(newVals))
			}
			continue
		}
		outIDs = append(outIDs, id)
		outVals = append(outVals, res.values[r])
	}
	// Pending rows whose NEW values now match but whose old values did not.
	extra := make([]uint64, 0)
	for id := range pend {
		if !covered[id] {
			extra = append(extra, id)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	for _, id := range extra {
		match, err := e.rowMatches(meta, pend[id], preds, enc)
		if err != nil {
			return err
		}
		if match {
			outIDs = append(outIDs, id)
			outVals = append(outVals, slices.Clone(pend[id]))
		}
	}
	res.ids = outIDs
	res.values = outVals
	return nil
}
