// Package server adapts a provider's store to the wire protocol: it
// dispatches decoded request messages to storage operations and maps
// storage errors onto protocol error codes. One Provider instance is one
// DAS_i of the paper.
package server

import (
	"errors"
	"fmt"

	"sssdb/internal/proto"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

// Provider handles protocol requests against a store. Handle is safe for
// concurrent use: the multiplexed transport dispatches requests from a
// worker pool, and the store's reader/writer locking provides the actual
// isolation (scans share, mutations exclude).
type Provider struct {
	store *store.Store
}

// New wraps a store.
func New(st *store.Store) *Provider {
	return &Provider{store: st}
}

// Store exposes the underlying store (for tests and tooling).
func (p *Provider) Store() *store.Store { return p.store }

var (
	_ transport.Handler       = (*Provider)(nil)
	_ transport.StreamHandler = (*Provider)(nil)
)

// HandleStream implements transport.StreamHandler: every scan and every join
// runs on a store cursor, emitting bounded row batches — a join's pairs — as
// they are produced instead of materializing the result set, and a
// proof-carrying scan's last batch carries its completeness proof. A read
// that cannot run (or be proved) is refused before any row is sent, and one
// whose client gave up (emit fails) stops at that batch. Every other request
// reports handled=false.
func (p *Provider) HandleStream(req proto.Message, emit func(*proto.RowsResponse) error) (bool, error) {
	var cur *store.ScanCursor
	var err error
	switch m := req.(type) {
	case *proto.ScanRequest:
		cur, err = p.store.OpenCursor(m.Table, m.Filter, store.Projection(m.Projection, m.IDsOnly), m.Limit, 0)
		if err == nil && m.WithProof {
			err = cur.Prove()
		}
	case *proto.JoinRequest:
		cur, err = p.store.OpenJoin(m, 0)
	default:
		return false, nil
	}
	if err != nil {
		return true, errResponse(err).Err()
	}
	for sent := false; ; sent = true {
		batch, err := cur.Next()
		switch {
		case err != nil:
			return true, errResponse(err).Err()
		case batch == nil && sent:
			return true, nil
		case batch == nil:
			// Empty result: one empty batch still carries the column header.
			batch = &proto.RowsResponse{Columns: cur.Columns()}
		}
		if err := emit(batch); err != nil || len(batch.Rows) == 0 {
			return true, err // a batch without rows is the last
		}
	}
}

// Handle implements transport.Handler.
func (p *Provider) Handle(req proto.Message) proto.Message {
	switch m := req.(type) {
	case *proto.PingRequest:
		// Pings double as storage-stats probes: the repair loop reads cache
		// pressure and checkpoint lag from every liveness check.
		st := p.store.Stats()
		return &proto.StatsResponse{
			Tables:          uint64(st.Tables),
			Rows:            st.Rows,
			Pages:           st.Pages,
			ResidentPages:   st.ResidentPages,
			ResidentBytes:   st.ResidentBytes,
			CacheBudget:     st.CacheBudget,
			CacheHits:       st.CacheHits,
			CacheMisses:     st.CacheMisses,
			Evictions:       st.Evictions,
			Writebacks:      st.Writebacks,
			WALRecords:      st.WALRecords,
			CheckpointLSN:   st.CheckpointLSN,
			CheckpointLag:   st.CheckpointLag,
			Checkpoints:     st.Checkpoints,
			WALFsyncs:       st.WALFsyncs,
			WALFsyncNanos:   st.WALFsyncNanos,
			WALFsyncMaxNano: st.WALFsyncMaxNano,
		}
	case *proto.CreateTableRequest, *proto.DropTableRequest, *proto.InsertRequest, *proto.UpdateRequest,
		*proto.DeleteRequest, *proto.TxPrepareRequest, *proto.TxCommitRequest, *proto.TxAbortRequest:
		affected, err := p.store.Mutate(m)
		if err != nil {
			return errResponse(err)
		}
		return &proto.OKResponse{Affected: affected}
	case *proto.ListTablesRequest:
		return &proto.TablesResponse{Specs: p.store.ListTables()}
	case *proto.AggregateRequest:
		res, err := p.store.Aggregate(m)
		if err != nil {
			return errResponse(err)
		}
		return res
	case *proto.TableStateRequest:
		res, err := p.store.ResyncDigest(m.Table)
		if err != nil {
			return errResponse(err)
		}
		return res
	default:
		return &proto.ErrorResponse{
			Code: proto.CodeBadRequest,
			Msg:  fmt.Sprintf("unexpected message %T", req),
		}
	}
}

// errResponse maps storage errors to protocol codes.
func errResponse(err error) *proto.ErrorResponse {
	code := proto.CodeInternal
	switch {
	case errors.Is(err, store.ErrNoSuchTable):
		code = proto.CodeNoSuchTable
	case errors.Is(err, store.ErrTableExists):
		code = proto.CodeTableExists
	case errors.Is(err, store.ErrNoSuchColumn):
		code = proto.CodeNoSuchColumn
	case errors.Is(err, store.ErrBadRequest):
		code = proto.CodeBadRequest
	case errors.Is(err, store.ErrDuplicateRow):
		code = proto.CodeDuplicateRow
	case errors.Is(err, store.ErrNoSuchRow):
		code = proto.CodeNoSuchRow
	case errors.Is(err, store.ErrNoSuchTx):
		code = proto.CodeNoSuchTx
	}
	return &proto.ErrorResponse{Code: code, Msg: err.Error()}
}
