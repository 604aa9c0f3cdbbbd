package proto

import (
	"errors"
	"fmt"
)

// Kind tags every message on the wire.
type Kind uint8

// kindBase is the first kind; all kinds are below 64.
const kindBase = 32

// formatTag, above the kind in an encoded message's first byte, is this
// format's generation. Format 1 (per-row encodings) and format 2 (blocks of
// 24-byte shares, column specs without a width) wrote the bare kind — 1–26
// and 32–57 — so no frame, WAL record, hint or tx-log record of theirs
// decodes as anything here: Decode answers ErrOldFormat.
const (
	formatTag  = 0x40
	formatMask = 0xc0
	_          = uint8(formatTag - 1 - KTxMark) // the last kind fits below the tag
)

// ErrOldFormat rejects a message written before domain-width shares.
var ErrOldFormat = errors.New("proto: record or peer uses format 1 or 2; this build reads domain-width share format 3 only")

// Message kinds. Requests and responses share one space so a frame is
// self-describing.
const (
	KPing Kind = iota + kindBase
	KCreateTable
	KDropTable
	KListTables
	KInsert
	KDelete
	KUpdate
	KScan
	KAggregate
	KJoin
	// 42 was the digest request (a column's Merkle root) up to wire version 5;
	// since 6 a verified scan's proof carries the root. Retired like 46, the
	// name kept for tools that label kinds by name.
	KDigest
	KOK
	KError
	KRows
	// 46 was KAggResult, the ungrouped aggregate's answer up to wire version
	// 4. Retired, never reused, and nothing after it renumbered: later kinds
	// are on disk in WAL, hint and tx-log records.
	_
	// 47 was KJoinResult, a join's whole answer up to wire version 7; since
	// 8 a join streams its pairs as RowsResponse chunks. Retired like 46.
	_
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
	// fields names the body's fields, in wire order, to a codec that is
	// either encoding or decoding them.
	fields(c *codec)
}

// --- Requests ---

// PingRequest checks liveness.
type PingRequest struct{}

func (*PingRequest) Kind() Kind    { return KPing }
func (*PingRequest) fields(*codec) {}

// CreateTableRequest creates a share-space table.
type CreateTableRequest struct {
	Spec TableSpec
}

func (*CreateTableRequest) Kind() Kind        { return KCreateTable }
func (m *CreateTableRequest) fields(c *codec) { c.spec(&m.Spec) }

// DropTableRequest removes a table and its indexes.
type DropTableRequest struct {
	Table string
}

func (*DropTableRequest) Kind() Kind        { return KDropTable }
func (m *DropTableRequest) fields(c *codec) { c.str(&m.Table) }

// ListTablesRequest asks for all table specs.
type ListTablesRequest struct{}

func (*ListTablesRequest) Kind() Kind    { return KListTables }
func (*ListTablesRequest) fields(*codec) {}

// InsertRequest appends rows. Row IDs are client-assigned and must be new.
type InsertRequest struct {
	Table string
	Rows  []Row
}

func (*InsertRequest) Kind() Kind { return KInsert }
func (m *InsertRequest) fields(c *codec) {
	c.str(&m.Table)
	c.rows(&m.Rows)
}

// DeleteRequest removes rows by id.
type DeleteRequest struct {
	Table  string
	RowIDs []uint64
}

func (*DeleteRequest) Kind() Kind { return KDelete }
func (m *DeleteRequest) fields(c *codec) {
	c.str(&m.Table)
	c.u64s(&m.RowIDs)
}

// UpdateRequest replaces whole rows by id (the paper's eager update:
// reconstruct at the client, re-share, redistribute).
type UpdateRequest struct {
	Table string
	Rows  []Row
}

func (*UpdateRequest) Kind() Kind { return KUpdate }
func (m *UpdateRequest) fields(c *codec) {
	c.str(&m.Table)
	c.rows(&m.Rows)
}

// ScanRequest returns rows matching Filter (all rows when nil), projected
// to the named columns (all when empty; none — a zero-cell block, just ids —
// when IDsOnly), capped at Limit when non-zero.
// WithProof asks for a Merkle completeness proof over the filtered column.
// The request carries no deadline: a client that gives up on the scan sends
// the transport's cancel frame, which stops the provider's cursor at its
// next batch (or drops the request unrun if it is still queued).
type ScanRequest struct {
	Table      string
	Filter     *Filter
	Projection []string
	Limit      uint64
	WithProof  bool
	IDsOnly    bool
}

func (*ScanRequest) Kind() Kind { return KScan }
func (m *ScanRequest) fields(c *codec) {
	c.str(&m.Table)
	c.filter(&m.Filter)
	c.strings(&m.Projection)
	c.uvarint(&m.Limit)
	c.flags(&m.WithProof, &m.IDsOnly)
}

// AggregateRequest computes a provider-side partial aggregate, answered with
// a GroupResult. GroupCol partitions the matching rows into buckets by that
// column's cell bytes (an OPP column: deterministic shares make grouping
// exact); without one they are a single bucket with an empty key.
// OrderCol names the OPP column that defines ordering (min/max/median);
// ValueCol names the field-share column to return/sum (empty for count).
type AggregateRequest struct {
	Table    string
	Op       AggOp
	OrderCol string
	ValueCol string
	GroupCol string
	Filter   *Filter
}

func (*AggregateRequest) Kind() Kind { return KAggregate }
func (m *AggregateRequest) fields(c *codec) {
	c.str(&m.Table)
	c.u8((*uint8)(&m.Op))
	c.str(&m.OrderCol)
	c.str(&m.ValueCol)
	c.str(&m.GroupCol)
	c.filter(&m.Filter)
}

// JoinRequest equijoins two tables on share-equality of the named columns
// (same-domain referential joins, paper Sec. V-A). The provider streams the
// matching pairs as RowsResponse chunks, one row per pair: the left row's id,
// the left projection's cells, the right row's id as one 8-byte big-endian
// cell (column JoinRightID), then the right projection's cells. A side whose
// IDsOnly flag is set contributes its row id and no cells.
type JoinRequest struct {
	LeftTable  string
	LeftCol    string
	RightTable string
	RightCol   string
	LeftProj   []string
	RightProj  []string
	// Filter optionally restricts the left side before joining.
	Filter                    *Filter
	LeftIDsOnly, RightIDsOnly bool
	// Limit caps the pairs sent (0 = no limit).
	Limit uint64
}

// JoinRightID names the cell of a join's pair that carries the right row's
// id.
const JoinRightID = "#right-id"

func (*JoinRequest) Kind() Kind { return KJoin }
func (m *JoinRequest) fields(c *codec) {
	c.str(&m.LeftTable)
	c.str(&m.LeftCol)
	c.str(&m.RightTable)
	c.str(&m.RightCol)
	c.strings(&m.LeftProj)
	c.strings(&m.RightProj)
	c.filter(&m.Filter)
	c.flags(&m.LeftIDsOnly, &m.RightIDsOnly)
	c.uvarint(&m.Limit)
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

func (*TableStateRequest) Kind() Kind        { return KTableState }
func (m *TableStateRequest) fields(c *codec) { c.str(&m.Table) }

// --- Responses ---

// OKResponse acknowledges a mutation.
type OKResponse struct {
	// Affected is the number of rows touched.
	Affected uint64
}

func (*OKResponse) Kind() Kind        { return KOK }
func (m *OKResponse) fields(c *codec) { c.uvarint(&m.Affected) }

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

	// Serving-path stats, filled by the transport server's admission
	// scheduler on every connection, in-process or TCP: current queue
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
func (m *StatsResponse) fields(c *codec) {
	for _, p := range []*uint64{
		&m.Tables, &m.Rows, &m.Pages, &m.ResidentPages, &m.ResidentBytes, &m.CacheBudget,
		&m.CacheHits, &m.CacheMisses, &m.Evictions, &m.Writebacks,
		&m.WALRecords, &m.CheckpointLSN, &m.CheckpointLag, &m.Checkpoints,
		&m.WALFsyncs, &m.WALFsyncNanos, &m.WALFsyncMaxNano,
		&m.QueueDepth, &m.QueueTenants, &m.Admitted, &m.Shed,
		&m.AdmitWaitP50, &m.AdmitWaitP99, &m.HandleP50, &m.HandleP99, &m.HandleP999,
	} {
		c.uvarint(p)
	}
}

// ErrorResponse reports a provider-side failure.
type ErrorResponse struct {
	Code ErrorCode
	Msg  string
}

func (*ErrorResponse) Kind() Kind { return KError }
func (m *ErrorResponse) fields(c *codec) {
	c.u16((*uint16)(&m.Code))
	c.str(&m.Msg)
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
func (m *RowsResponse) fields(c *codec) {
	c.strings(&m.Columns)
	c.rows(&m.Rows)
	c.bytes(&m.Proof)
}

// GroupPartial is one bucket's partial aggregate at a provider: the group
// key's share bytes, the bucket's row count, and the field-share sum of the
// value column over the rows the reduction keeps — every row for AggSum, the
// one row (id Pick) that MIN/MAX/MEDIAN picked by order.
type GroupPartial struct {
	Key   []byte
	Count uint64
	Sum   uint64
	Pick  uint64
}

// GroupResult carries bucket partials, ordered by key bytes — which is value
// order, so buckets align positionally across providers. Picks marks the
// answer to a MIN/MAX/MEDIAN: only then do buckets carry a Pick.
type GroupResult struct {
	Picks  bool
	Groups []GroupPartial
}

func (*GroupResult) Kind() Kind { return KGroupResult }
func (m *GroupResult) fields(c *codec) {
	c.bool(&m.Picks)
	list(c, &m.Groups, maxListLen, func(g *GroupPartial) {
		c.bytes(&g.Key)
		c.uvarint(&g.Count)
		c.u64(&g.Sum)
		if m.Picks {
			c.uvarint(&g.Pick)
		}
	})
}

// DigestResult carries a table's provider-neutral resync root and row count
// (the answer to a TableStateRequest).
type DigestResult struct {
	Root  []byte
	Count uint64
}

func (*DigestResult) Kind() Kind { return KDigestResult }
func (m *DigestResult) fields(c *codec) {
	c.bytes(&m.Root)
	c.uvarint(&m.Count)
}

// TablesResponse lists all table specs at a provider.
type TablesResponse struct {
	Specs []TableSpec
}

func (*TablesResponse) Kind() Kind        { return KTables }
func (m *TablesResponse) fields(c *codec) { list(c, &m.Specs, 65536, c.spec) }

// mk allocates an empty T as a Message.
func mk[T any, P interface {
	*T
	Message
}]() Message {
	return P(new(T))
}

// emptyMessage allocates the empty message of each kind.
var emptyMessage = [...]func() Message{
	KPing: mk[PingRequest], KCreateTable: mk[CreateTableRequest], KDropTable: mk[DropTableRequest],
	KListTables: mk[ListTablesRequest], KInsert: mk[InsertRequest], KDelete: mk[DeleteRequest],
	KUpdate: mk[UpdateRequest], KScan: mk[ScanRequest], KAggregate: mk[AggregateRequest],
	KJoin: mk[JoinRequest], KOK: mk[OKResponse], KError: mk[ErrorResponse],
	KRows: mk[RowsResponse], KDigestResult: mk[DigestResult], KTables: mk[TablesResponse], KGroupResult: mk[GroupResult],
	KTableState: mk[TableStateRequest], KStats: mk[StatsResponse], KTxPrepare: mk[TxPrepareRequest],
	KTxCommit: mk[TxCommitRequest], KTxAbort: mk[TxAbortRequest], KTxOps: mk[TxOpsRecord], KTxMark: mk[TxMarkRecord],
}

// newMessage allocates the empty message for a kind.
func newMessage(k Kind) (Message, error) {
	if int(k) >= len(emptyMessage) || emptyMessage[k] == nil {
		return nil, fmt.Errorf("proto: unknown message kind %d", k)
	}
	return emptyMessage[k](), nil
}

// Encode serializes a message body (kind byte + payload), without framing.
func Encode(m Message) []byte {
	c := &codec{}
	c.w.buf = c.w.small[:0]
	c.w.u8(formatTag | uint8(m.Kind()))
	m.fields(c)
	return c.w.buf
}

// Decode parses a message body produced by Encode, verifying that the
// payload is fully consumed.
func Decode(buf []byte) (Message, error) {
	if len(buf) == 0 {
		return nil, ErrTruncated
	}
	if buf[0]&formatMask != formatTag {
		return nil, fmt.Errorf("%w (first byte %#x)", ErrOldFormat, buf[0])
	}
	m, err := newMessage(Kind(buf[0] &^ formatMask))
	if err != nil {
		return nil, err
	}
	c := &codec{reading: true, r: reader{buf: buf, off: 1}}
	m.fields(c)
	if err := c.r.done(); err != nil {
		return nil, err
	}
	return m, nil
}
