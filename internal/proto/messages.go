package proto

import (
	"fmt"
)

// Kind tags every message on the wire.
type Kind uint8

// Message kinds. Requests and responses share one space so a frame is
// self-describing.
const (
	KPing Kind = iota + 1
	KCreateTable
	KDropTable
	KListTables
	KInsert
	KDelete
	KUpdate
	KScan
	KAggregate
	KJoin
	KDigest
	KOK
	KError
	KRows
	KAggResult
	KJoinResult
	KDigestResult
	KTables
	KGroupResult
	KTableState
	KStats
	KTxPrepare
	KTxCommit
	KTxAbort
	KTxOps
	KTxMark
)

// Message is anything that can travel in a frame.
type Message interface {
	Kind() Kind
	marshal(w *writer)
	unmarshal(r *reader)
}

// --- Requests ---

// PingRequest checks liveness.
type PingRequest struct{}

func (*PingRequest) Kind() Kind          { return KPing }
func (*PingRequest) marshal(w *writer)   {}
func (*PingRequest) unmarshal(r *reader) {}

// CreateTableRequest creates a share-space table.
type CreateTableRequest struct {
	Spec TableSpec
}

func (*CreateTableRequest) Kind() Kind { return KCreateTable }
func (m *CreateTableRequest) marshal(w *writer) {
	writeSpec(w, &m.Spec)
}
func (m *CreateTableRequest) unmarshal(r *reader) {
	m.Spec = readSpec(r)
}

// DropTableRequest removes a table and its indexes.
type DropTableRequest struct {
	Table string
}

func (*DropTableRequest) Kind() Kind            { return KDropTable }
func (m *DropTableRequest) marshal(w *writer)   { w.str(m.Table) }
func (m *DropTableRequest) unmarshal(r *reader) { m.Table = r.str() }

// ListTablesRequest asks for all table specs.
type ListTablesRequest struct{}

func (*ListTablesRequest) Kind() Kind          { return KListTables }
func (*ListTablesRequest) marshal(w *writer)   {}
func (*ListTablesRequest) unmarshal(r *reader) {}

// InsertRequest appends rows. Row IDs are client-assigned and must be new.
type InsertRequest struct {
	Table string
	Rows  []Row
}

func (*InsertRequest) Kind() Kind { return KInsert }
func (m *InsertRequest) marshal(w *writer) {
	w.str(m.Table)
	writeRows(w, m.Rows)
}
func (m *InsertRequest) unmarshal(r *reader) {
	m.Table = r.str()
	m.Rows = readRows(r)
}

// DeleteRequest removes rows by id.
type DeleteRequest struct {
	Table  string
	RowIDs []uint64
}

func (*DeleteRequest) Kind() Kind { return KDelete }
func (m *DeleteRequest) marshal(w *writer) {
	w.str(m.Table)
	writeU64s(w, m.RowIDs)
}
func (m *DeleteRequest) unmarshal(r *reader) {
	m.Table = r.str()
	m.RowIDs = readU64s(r)
}

// UpdateRequest replaces whole rows by id (the paper's eager update:
// reconstruct at the client, re-share, redistribute).
type UpdateRequest struct {
	Table string
	Rows  []Row
}

func (*UpdateRequest) Kind() Kind { return KUpdate }
func (m *UpdateRequest) marshal(w *writer) {
	w.str(m.Table)
	writeRows(w, m.Rows)
}
func (m *UpdateRequest) unmarshal(r *reader) {
	m.Table = r.str()
	m.Rows = readRows(r)
}

// ScanRequest returns rows matching Filter (all rows when nil), projected
// to the named columns (all when empty), capped at Limit when non-zero.
// WithProof asks for a Merkle completeness proof over the filtered column.
// TimeoutMillis, when non-zero, is the client's remaining read deadline at
// send time: a provider streaming the response checks it between batches
// and abandons the scan with CodeDeadlineExceeded once it elapses, so a
// client that has already timed out stops costing the provider work.
type ScanRequest struct {
	Table         string
	Filter        *Filter
	Projection    []string
	Limit         uint64
	WithProof     bool
	TimeoutMillis uint64
}

func (*ScanRequest) Kind() Kind { return KScan }
func (m *ScanRequest) marshal(w *writer) {
	w.str(m.Table)
	writeFilter(w, m.Filter)
	writeStrings(w, m.Projection)
	w.uvarint(m.Limit)
	w.bool(m.WithProof)
	w.uvarint(m.TimeoutMillis)
}
func (m *ScanRequest) unmarshal(r *reader) {
	m.Table = r.str()
	m.Filter = readFilter(r)
	m.Projection = readStrings(r)
	m.Limit = r.uvarint()
	m.WithProof = r.bool()
	m.TimeoutMillis = r.uvarint()
}

// AggregateRequest computes a provider-side partial aggregate.
// OrderCol names the OPP column that defines ordering (min/max/median);
// ValueCol names the field-share column to return/sum (empty for count).
// A non-empty GroupCol partitions matching rows by that column's cell bytes
// (an OPP column: deterministic shares make grouping exact) and the
// provider answers with a GroupResult instead of an AggResult.
type AggregateRequest struct {
	Table    string
	Op       AggOp
	OrderCol string
	ValueCol string
	GroupCol string
	Filter   *Filter
}

func (*AggregateRequest) Kind() Kind { return KAggregate }
func (m *AggregateRequest) marshal(w *writer) {
	w.str(m.Table)
	w.u8(uint8(m.Op))
	w.str(m.OrderCol)
	w.str(m.ValueCol)
	w.str(m.GroupCol)
	writeFilter(w, m.Filter)
}
func (m *AggregateRequest) unmarshal(r *reader) {
	m.Table = r.str()
	m.Op = AggOp(r.u8())
	m.OrderCol = r.str()
	m.ValueCol = r.str()
	m.GroupCol = r.str()
	m.Filter = readFilter(r)
}

// JoinRequest equijoins two tables on share-equality of the named columns
// (same-domain referential joins, paper Sec. V-A). The provider returns the
// projected cells of both sides for each matching pair.
type JoinRequest struct {
	LeftTable  string
	LeftCol    string
	RightTable string
	RightCol   string
	LeftProj   []string
	RightProj  []string
	// Filter optionally restricts the left side before joining.
	Filter *Filter
}

func (*JoinRequest) Kind() Kind { return KJoin }
func (m *JoinRequest) marshal(w *writer) {
	w.str(m.LeftTable)
	w.str(m.LeftCol)
	w.str(m.RightTable)
	w.str(m.RightCol)
	writeStrings(w, m.LeftProj)
	writeStrings(w, m.RightProj)
	writeFilter(w, m.Filter)
}
func (m *JoinRequest) unmarshal(r *reader) {
	m.LeftTable = r.str()
	m.LeftCol = r.str()
	m.RightTable = r.str()
	m.RightCol = r.str()
	m.LeftProj = readStrings(r)
	m.RightProj = readStrings(r)
	m.Filter = readFilter(r)
}

// DigestRequest asks for the Merkle root of a table's indexed column.
type DigestRequest struct {
	Table string
	Col   string
}

func (*DigestRequest) Kind() Kind { return KDigest }
func (m *DigestRequest) marshal(w *writer) {
	w.str(m.Table)
	w.str(m.Col)
}
func (m *DigestRequest) unmarshal(r *reader) {
	m.Table = r.str()
	m.Col = r.str()
}

// TableStateRequest asks for a provider-neutral resync digest of a whole
// table: a Merkle root over the sorted row ids whose leaves commit to cell
// *shapes* (and to full plaintext-replicated cells) rather than to share
// bytes. Share cells differ per provider by construction, so this is the
// strongest table summary that can still be compared across providers; the
// repair loop uses it to check a recovered provider against a healthy peer.
// The response is a DigestResult.
type TableStateRequest struct {
	Table string
}

func (*TableStateRequest) Kind() Kind            { return KTableState }
func (m *TableStateRequest) marshal(w *writer)   { w.str(m.Table) }
func (m *TableStateRequest) unmarshal(r *reader) { m.Table = r.str() }

// --- Responses ---

// OKResponse acknowledges a mutation.
type OKResponse struct {
	// Affected is the number of rows touched.
	Affected uint64
}

func (*OKResponse) Kind() Kind            { return KOK }
func (m *OKResponse) marshal(w *writer)   { w.uvarint(m.Affected) }
func (m *OKResponse) unmarshal(r *reader) { m.Affected = r.uvarint() }

// StatsResponse answers a ping with the provider's storage and serving
// state: how much of the page cache is in use, how effective it is, how far
// the WAL has run ahead of the last checkpoint, how long fsyncs are taking,
// and — on TCP servers — what the admission scheduler sees (queue depth,
// admission waits, handler latency quantiles). The client's repair loop
// reads it on every probe, so provider memory pressure, durability lag, and
// serving pressure are visible without a separate stats round-trip.
type StatsResponse struct {
	Tables        uint64
	Rows          uint64
	Pages         uint64 // page-directory entries across all tables
	ResidentPages uint64 // pages currently decoded in the cache
	ResidentBytes uint64 // exact encoded bytes of resident pages
	CacheBudget   uint64 // 0 = unbounded
	CacheHits     uint64
	CacheMisses   uint64
	Evictions     uint64
	Writebacks    uint64
	WALRecords    uint64 // last appended LSN
	CheckpointLSN uint64 // LSN the durable manifest covers
	CheckpointLag uint64 // records a restart would replay right now
	Checkpoints   uint64

	// WAL fsync visibility: how many group-commit fsyncs ran, their total
	// and maximum wall time. Mean lag = WALFsyncNanos / WALFsyncs.
	WALFsyncs       uint64
	WALFsyncNanos   uint64
	WALFsyncMaxNano uint64

	// Serving-path stats, filled by the TCP transport's admission
	// scheduler (zero on in-process loopback connections): current queue
	// depth across tenant queues, tenants with queued work, cumulative
	// admitted/shed request counts, and latency quantiles in nanoseconds
	// for admission wait and handler execution.
	QueueDepth   uint64
	QueueTenants uint64
	Admitted     uint64
	Shed         uint64
	AdmitWaitP50 uint64
	AdmitWaitP99 uint64
	HandleP50    uint64
	HandleP99    uint64
	HandleP999   uint64
}

func (*StatsResponse) Kind() Kind { return KStats }
func (m *StatsResponse) marshal(w *writer) {
	w.uvarint(m.Tables)
	w.uvarint(m.Rows)
	w.uvarint(m.Pages)
	w.uvarint(m.ResidentPages)
	w.uvarint(m.ResidentBytes)
	w.uvarint(m.CacheBudget)
	w.uvarint(m.CacheHits)
	w.uvarint(m.CacheMisses)
	w.uvarint(m.Evictions)
	w.uvarint(m.Writebacks)
	w.uvarint(m.WALRecords)
	w.uvarint(m.CheckpointLSN)
	w.uvarint(m.CheckpointLag)
	w.uvarint(m.Checkpoints)
	w.uvarint(m.WALFsyncs)
	w.uvarint(m.WALFsyncNanos)
	w.uvarint(m.WALFsyncMaxNano)
	w.uvarint(m.QueueDepth)
	w.uvarint(m.QueueTenants)
	w.uvarint(m.Admitted)
	w.uvarint(m.Shed)
	w.uvarint(m.AdmitWaitP50)
	w.uvarint(m.AdmitWaitP99)
	w.uvarint(m.HandleP50)
	w.uvarint(m.HandleP99)
	w.uvarint(m.HandleP999)
}
func (m *StatsResponse) unmarshal(r *reader) {
	m.Tables = r.uvarint()
	m.Rows = r.uvarint()
	m.Pages = r.uvarint()
	m.ResidentPages = r.uvarint()
	m.ResidentBytes = r.uvarint()
	m.CacheBudget = r.uvarint()
	m.CacheHits = r.uvarint()
	m.CacheMisses = r.uvarint()
	m.Evictions = r.uvarint()
	m.Writebacks = r.uvarint()
	m.WALRecords = r.uvarint()
	m.CheckpointLSN = r.uvarint()
	m.CheckpointLag = r.uvarint()
	m.Checkpoints = r.uvarint()
	m.WALFsyncs = r.uvarint()
	m.WALFsyncNanos = r.uvarint()
	m.WALFsyncMaxNano = r.uvarint()
	m.QueueDepth = r.uvarint()
	m.QueueTenants = r.uvarint()
	m.Admitted = r.uvarint()
	m.Shed = r.uvarint()
	m.AdmitWaitP50 = r.uvarint()
	m.AdmitWaitP99 = r.uvarint()
	m.HandleP50 = r.uvarint()
	m.HandleP99 = r.uvarint()
	m.HandleP999 = r.uvarint()
}

// ErrorResponse reports a provider-side failure.
type ErrorResponse struct {
	Code ErrorCode
	Msg  string
}

func (*ErrorResponse) Kind() Kind { return KError }
func (m *ErrorResponse) marshal(w *writer) {
	w.u16(uint16(m.Code))
	w.str(m.Msg)
}
func (m *ErrorResponse) unmarshal(r *reader) {
	m.Code = ErrorCode(r.u16())
	m.Msg = r.str()
}

// Err converts the response into an error value.
func (m *ErrorResponse) Err() error {
	return &RemoteError{Code: m.Code, Msg: m.Msg}
}

// RowsResponse carries scan results. Columns lists the projected column
// names in cell order. Proof, when requested, is an opaque completeness
// proof produced by the trust layer.
type RowsResponse struct {
	Columns []string
	Rows    []Row
	Proof   []byte
}

func (*RowsResponse) Kind() Kind { return KRows }
func (m *RowsResponse) marshal(w *writer) {
	writeStrings(w, m.Columns)
	writeRows(w, m.Rows)
	w.bytes(m.Proof)
}
func (m *RowsResponse) unmarshal(r *reader) {
	m.Columns = readStrings(r)
	m.Rows = readRows(r)
	m.Proof = r.bytes()
	if len(m.Proof) == 0 {
		m.Proof = nil
	}
}

// AggResult carries a partial aggregate. Count is always set; Sum holds the
// field-share sum for AggSum; Row holds, for min/max/median, the selected
// row's id and its ValueCol cell alone.
type AggResult struct {
	Count  uint64
	Sum    uint64
	HasRow bool
	Row    Row
}

func (*AggResult) Kind() Kind { return KAggResult }
func (m *AggResult) marshal(w *writer) {
	w.uvarint(m.Count)
	w.u64(m.Sum)
	w.bool(m.HasRow)
	if m.HasRow {
		writeRow(w, m.Row)
	}
}
func (m *AggResult) unmarshal(r *reader) {
	m.Count = r.uvarint()
	m.Sum = r.u64()
	m.HasRow = r.bool()
	if m.HasRow {
		m.Row = readRow(r)
	}
}

// GroupPartial is one group's partial aggregate at a provider: the group
// key's share bytes, the group's row count, and the field-share sum of the
// value column.
type GroupPartial struct {
	Key   []byte
	Count uint64
	Sum   uint64
}

// GroupResult carries grouped partial aggregates, ordered by key bytes —
// which is value order, so groups align positionally across providers.
type GroupResult struct {
	Groups []GroupPartial
}

func (*GroupResult) Kind() Kind { return KGroupResult }
func (m *GroupResult) marshal(w *writer) {
	w.uvarint(uint64(len(m.Groups)))
	for _, g := range m.Groups {
		w.bytes(g.Key)
		w.uvarint(g.Count)
		w.u64(g.Sum)
	}
}
func (m *GroupResult) unmarshal(r *reader) {
	n := r.length(maxListLen)
	if r.err != nil || n == 0 {
		return
	}
	m.Groups = make([]GroupPartial, n)
	for i := range m.Groups {
		m.Groups[i].Key = r.bytes()
		m.Groups[i].Count = r.uvarint()
		m.Groups[i].Sum = r.u64()
	}
}

// JoinedRow is one matched pair from a provider-side equijoin.
type JoinedRow struct {
	LeftID  uint64
	RightID uint64
	// Cells holds the left projection cells followed by the right ones.
	Cells [][]byte
}

// JoinResult carries equijoin output. Columns lists left projection names
// followed by right projection names.
type JoinResult struct {
	Columns []string
	Rows    []JoinedRow
}

func (*JoinResult) Kind() Kind { return KJoinResult }
func (m *JoinResult) marshal(w *writer) {
	writeStrings(w, m.Columns)
	w.uvarint(uint64(len(m.Rows)))
	for _, jr := range m.Rows {
		w.u64(jr.LeftID)
		w.u64(jr.RightID)
		w.uvarint(uint64(len(jr.Cells)))
		for _, c := range jr.Cells {
			w.bytes(c)
		}
	}
}
func (m *JoinResult) unmarshal(r *reader) {
	m.Columns = readStrings(r)
	n := r.length(maxListLen)
	if r.err != nil {
		return
	}
	m.Rows = make([]JoinedRow, n)
	for i := range m.Rows {
		m.Rows[i].LeftID = r.u64()
		m.Rows[i].RightID = r.u64()
		cn := r.length(4096)
		if r.err != nil {
			return
		}
		if cn == 0 {
			continue
		}
		m.Rows[i].Cells = make([][]byte, cn)
		for j := range m.Rows[i].Cells {
			m.Rows[i].Cells[j] = r.bytes()
		}
	}
}

// DigestResult carries a table column's Merkle root and row count.
type DigestResult struct {
	Root  []byte
	Count uint64
}

func (*DigestResult) Kind() Kind { return KDigestResult }
func (m *DigestResult) marshal(w *writer) {
	w.bytes(m.Root)
	w.uvarint(m.Count)
}
func (m *DigestResult) unmarshal(r *reader) {
	m.Root = r.bytes()
	m.Count = r.uvarint()
}

// TablesResponse lists all table specs at a provider.
type TablesResponse struct {
	Specs []TableSpec
}

func (*TablesResponse) Kind() Kind { return KTables }
func (m *TablesResponse) marshal(w *writer) {
	w.uvarint(uint64(len(m.Specs)))
	for i := range m.Specs {
		writeSpec(w, &m.Specs[i])
	}
}
func (m *TablesResponse) unmarshal(r *reader) {
	n := r.length(65536)
	if r.err != nil || n == 0 {
		return
	}
	m.Specs = make([]TableSpec, n)
	for i := range m.Specs {
		m.Specs[i] = readSpec(r)
	}
}

// newMessage allocates the empty message for a kind.
func newMessage(k Kind) (Message, error) {
	switch k {
	case KPing:
		return &PingRequest{}, nil
	case KCreateTable:
		return &CreateTableRequest{}, nil
	case KDropTable:
		return &DropTableRequest{}, nil
	case KListTables:
		return &ListTablesRequest{}, nil
	case KInsert:
		return &InsertRequest{}, nil
	case KDelete:
		return &DeleteRequest{}, nil
	case KUpdate:
		return &UpdateRequest{}, nil
	case KScan:
		return &ScanRequest{}, nil
	case KAggregate:
		return &AggregateRequest{}, nil
	case KJoin:
		return &JoinRequest{}, nil
	case KDigest:
		return &DigestRequest{}, nil
	case KOK:
		return &OKResponse{}, nil
	case KError:
		return &ErrorResponse{}, nil
	case KRows:
		return &RowsResponse{}, nil
	case KAggResult:
		return &AggResult{}, nil
	case KJoinResult:
		return &JoinResult{}, nil
	case KDigestResult:
		return &DigestResult{}, nil
	case KTables:
		return &TablesResponse{}, nil
	case KGroupResult:
		return &GroupResult{}, nil
	case KTableState:
		return &TableStateRequest{}, nil
	case KStats:
		return &StatsResponse{}, nil
	case KTxPrepare:
		return &TxPrepareRequest{}, nil
	case KTxCommit:
		return &TxCommitRequest{}, nil
	case KTxAbort:
		return &TxAbortRequest{}, nil
	case KTxOps:
		return &TxOpsRecord{}, nil
	case KTxMark:
		return &TxMarkRecord{}, nil
	default:
		return nil, fmt.Errorf("proto: unknown message kind %d", k)
	}
}

// Encode serializes a message body (kind byte + payload), without framing.
func Encode(m Message) []byte {
	w := &writer{buf: make([]byte, 0, 64)}
	w.u8(uint8(m.Kind()))
	m.marshal(w)
	return w.buf
}

// Decode parses a message body produced by Encode, verifying that the
// payload is fully consumed.
func Decode(buf []byte) (Message, error) {
	if len(buf) == 0 {
		return nil, ErrTruncated
	}
	m, err := newMessage(Kind(buf[0]))
	if err != nil {
		return nil, err
	}
	r := &reader{buf: buf, off: 1}
	m.unmarshal(r)
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}
