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
// predicates may be qualified with ("" accepts only unqualified columns).
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
	return out, nil
}

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
		lo, hi, err := cm.shareBounds(e.g, p, cp.lo, cp.hi)
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
	// columns the scan fetched (scanOpts.cols plus the residual predicates')
	// are set; a verified scan and pending lazy updates set all of them.
	values [][]Value
	// faulty lists providers whose shares were identified as corrupt
	// during robust reconstruction (verified mode).
	faulty []int
	// verified reports that verification ran and passed.
	verified bool
}

// scanOpts are the per-statement knobs of a table scan.
type scanOpts struct {
	// cols are the client columns (indices into meta.Cols) the caller will
	// read from the result; no other column's cell is fetched, except those
	// the scan's own residual predicates test. Empty means row ids only. A
	// verified scan ignores it and reconstructs whole rows.
	cols []int
	// limit caps the rows returned (0 = all).
	limit uint64
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

// readOpts is the scanOpts of a foreground read outside a transaction. The
// statement's deadline is fixed here, once: a scan that re-opens after a
// provider failure shares it, so failover cannot extend the budget.
func (e *engine) readOpts(cols []int, limit uint64, verified bool) scanOpts {
	return scanOpts{cols: cols, limit: limit, verified: verified, epoch: noEpoch, deadline: e.readDeadline()}
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
// are post-processed the same way: pending lazy updates overlay the result,
// then LIMIT truncates it.
func (e *engine) scanTable(meta *tableMeta, preds []compiledPred, o scanOpts) (*scanResult, error) {
	for _, cp := range preds {
		if cp.empty {
			return &scanResult{verified: o.verified}, nil
		}
	}
	limit := o.limit
	if e.hasPending(meta.Name) {
		// The overlay may drop or add rows after the fact; fetch unlimited
		// and truncate at the end.
		o.limit = 0
	}
	var res *scanResult
	var err error
	if o.verified {
		res, err = e.scanVerified(meta, preds, o.deadline)
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
	if limit > 0 && uint64(len(res.ids)) > limit {
		res.ids = res.ids[:limit]
		res.values = res.values[:limit]
	}
	return res, nil
}

// scanVerified gathers whole proof-carrying responses from every reachable
// non-lagging provider, checks each Merkle completeness proof against that
// provider's digest, keeps the majority row set, and robust-reconstructs
// cells to identify corrupt providers. The caller holds the exclusive
// statement lock, so no insert is in flight and no row needs masking. A
// completeness proof covers a whole range, so no LIMIT is pushed down:
// scanTable truncates the result. Whole rows are fetched whatever the caller
// reads: the proof's leaf digest hashes every cell, the range check reads the
// order-preserving one, and robust reconstruction of every column is what
// identifies a corrupt provider.
func (e *engine) scanVerified(meta *tableMeta, preds []compiledPred, deadline time.Time) (*scanResult, error) {
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
	// Every reachable provider is asked: redundancy is what lets
	// proof-failing or outvoted providers be dropped while a quorum of K
	// survives.
	responses, err := e.callQuorum(e.opts.K, e.opts.N, func(i int) proto.Message {
		return &proto.ScanRequest{
			Table:         meta.Name,
			Filter:        filters[i],
			WithProof:     true,
			TimeoutMillis: timeoutMillis(deadline),
		}
	}, deadline)
	if err != nil {
		return nil, err
	}
	rowsByProvider := make(map[int]*proto.RowsResponse, len(responses))
	providers := make([]int, 0, len(responses))
	var proofFaulty []int
	for _, r := range responses {
		rr, err := as[*proto.RowsResponse](r.provider, r.msg)
		if err != nil {
			// A mis-typed response is just another malicious behavior:
			// drop the provider and continue if a quorum remains.
			proofFaulty = append(proofFaulty, r.provider)
			continue
		}
		rowsByProvider[r.provider] = rr
		providers = append(providers, r.provider)
	}
	if len(providers) < e.opts.K {
		return nil, fmt.Errorf("%w: only %d well-formed responses (faulty: %v)",
			ErrVerification, len(providers), proofFaulty)
	}
	// Detection AND recovery: drop providers whose completeness proofs fail
	// or that disagree with the majority row set, as long as a quorum of K
	// honest-looking providers remains.
	providers, verifyFaulty, err := e.applyVerification(meta, preds, providers, rowsByProvider)
	if err != nil {
		return nil, err
	}
	plan := meta.scanPlan(preds, nil, true)
	res, err := e.reconstructRows(meta, &plan, providers, rowsByProvider, true)
	if err != nil {
		return nil, err
	}
	res.faulty = mergeFaulty(res.faulty, mergeFaulty(proofFaulty, verifyFaulty))
	res.verified = true
	if err := e.filterResidual(meta, res, residualPreds(preds)); err != nil {
		return nil, err
	}
	return res, nil
}

func (e *engine) hasPending(table string) bool {
	return len(e.pending[table]) > 0
}

// reconstructRows rebuilds typed values from aligned provider responses,
// for the columns of plan — a projected stream batch and a verified whole-row
// response alike. The per-cell work — Lagrange combination (or robust
// reconstruction) plus domain decoding — is independent across rows, so the
// row range is chunked across the worker pool. Each worker owns a contiguous
// span with its own share scratch buffer and its own faulty set; spans share
// the precomputed quorum Lagrange weights, and the faulty sets merge after
// the join, so the result is identical to the serial pass in both modes.
func (e *engine) reconstructRows(meta *tableMeta, plan *fetchPlan, providers []int, rowsByProvider map[int]*proto.RowsResponse, robust bool) (*scanResult, error) {
	for _, p := range providers {
		if err := checkHeader(p, rowsByProvider[p].Columns, plan.names); err != nil {
			return nil, err
		}
	}
	base := rowsByProvider[providers[0]]
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
			for _, p := range providers {
				if n := len(rowsByProvider[p].Rows[r].Cells); n != len(plan.names) {
					return fmt.Errorf("%w: provider %d sent row %d with %d cells under a %d-column header",
						ErrInconsistent, p, id, n, len(plan.names))
				}
			}
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
						for _, p := range providers[1:] {
							if !bytes.Equal(rowsByProvider[p].Rows[r].Cells[cell], base.Rows[r].Cells[cell]) {
								chunkFaulty[p] = true
							}
						}
					}
					vals[ci] = BytesValue(blob)
					continue
				}
				var u uint64
				if robust {
					shares := make([]secretshare.Share, 0, len(providers))
					for _, p := range providers {
						cellBytes := rowsByProvider[p].Rows[r].Cells[cell]
						if len(cellBytes) != 8 {
							chunkFaulty[p] = true
							continue
						}
						shares = append(shares, secretshare.Share{
							Index: p,
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
					for i, p := range providers[:e.opts.K] {
						cellBytes := rowsByProvider[p].Rows[r].Cells[cell]
						if len(cellBytes) != 8 {
							return fmt.Errorf("%w: provider %d returned a malformed share", ErrInconsistent, p)
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

func beUint64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

// mergeFaulty unions two sorted fault lists.
func mergeFaulty(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	seen := make(map[int]bool, len(a)+len(b))
	for _, p := range a {
		seen[p] = true
	}
	for _, p := range b {
		seen[p] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// applyVerification verifies each provider's proof individually, drops the
// failures, then keeps the majority table size and row-id sequence among
// survivors. It errors only when fewer than K trustworthy providers remain.
func (e *engine) applyVerification(meta *tableMeta, preds []compiledPred, providers []int, rowsByProvider map[int]*proto.RowsResponse) (kept, faulty []int, err error) {
	// Majority vote on the table size and the row-id sequence.
	groups := make(map[string][]int)
	for _, p := range providers {
		count, verr := e.verifyProviderScan(meta, preds, p, rowsByProvider[p])
		if verr != nil {
			faulty = append(faulty, p)
			continue
		}
		kept = append(kept, p)
		sig := rowSignature(count, rowsByProvider[p].Rows)
		groups[sig] = append(groups[sig], p)
	}
	var best []int
	for _, members := range groups {
		if len(members) > len(best) {
			best = members
		}
	}
	for _, p := range kept {
		inBest := false
		for _, q := range best {
			if p == q {
				inBest = true
			}
		}
		if !inBest {
			faulty = append(faulty, p)
		}
	}
	sort.Ints(best)
	sort.Ints(faulty)
	if len(best) < e.opts.K {
		return nil, nil, fmt.Errorf("%w: only %d of %d required providers verified (faulty: %v)",
			ErrVerification, len(best), e.opts.K, faulty)
	}
	if len(groups) > 1 && 2*len(best) <= len(kept) {
		return nil, nil, fmt.Errorf("%w: no majority row set among providers", ErrVerification)
	}
	return best, faulty, nil
}

func rowSignature(count uint64, rows []proto.Row) string {
	b := binary.BigEndian.AppendUint64(nil, count)
	for _, r := range rows {
		b = binary.BigEndian.AppendUint64(b, r.ID)
	}
	return string(b)
}

// verifyProviderScan checks one provider's Merkle completeness proof
// against its own digest and returns the digest's row count: the proof shows
// nothing is missing from the range of that many rows, the caller's vote
// across providers that none is missing outside it.
func (e *engine) verifyProviderScan(meta *tableMeta, preds []compiledPred, p int, resp *proto.RowsResponse) (uint64, error) {
	cp := preds[0]
	cm := &meta.Cols[cp.ci]
	oppCol := cm.Name + suffixOPP
	spec := meta.providerSpec()
	oppIdx := spec.ColumnIndex(oppCol)
	if resp.Proof == nil {
		return 0, fmt.Errorf("%w: provider %d sent no completeness proof", ErrVerification, p)
	}
	proof, err := merkle.UnmarshalRangeProof(resp.Proof)
	if err != nil {
		return 0, fmt.Errorf("%w: provider %d: %v", ErrVerification, p, err)
	}
	digResp, err := e.call(p, &proto.DigestRequest{Table: meta.Name, Col: oppCol}, noDeadline)
	if err != nil {
		return 0, fmt.Errorf("%w: provider %d digest: %v", ErrVerification, p, err)
	}
	dig, ok := digResp.(*proto.DigestResult)
	if !ok {
		return 0, fmt.Errorf("%w: provider %d digest response %T", ErrVerification, p, digResp)
	}
	if proof.N != dig.Count {
		return 0, fmt.Errorf("%w: provider %d proof covers %d leaves, digest says %d",
			ErrVerification, p, proof.N, dig.Count)
	}
	// Rebuild the leaf run: left fence, matched rows, right fence.
	var run []merkle.Hash
	if proof.LeftFence != nil {
		run = append(run, merkle.LeafHash(proof.LeftFence.Key, proof.LeftFence.RowDigest))
	}
	lo, hi, err := cm.shareBounds(e.g, p, cp.lo, cp.hi)
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
		key := make([]byte, len(cell)+8)
		copy(key, cell)
		binary.BigEndian.PutUint64(key[len(cell):], row.ID)
		run = append(run, merkle.LeafHash(key, store.RowDigest(row)))
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
	if !bytes.Equal(root[:], dig.Root) {
		return 0, fmt.Errorf("%w: provider %d proof does not match its digest", ErrVerification, p)
	}
	return dig.Count, nil
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
