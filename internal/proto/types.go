// Package proto defines the wire protocol between the data source (client)
// and the Database Service Providers, with a hand-rolled binary codec so
// every experiment can account for communication cost byte-for-byte — the
// axis on which the paper compares secret sharing against encryption and
// PIR against trivial download.
//
// Providers operate purely in share space: they see order-preserving shares
// as wide as their column's domain (ColumnSpec.Width: 13 bytes for a 40-bit
// integer), 8-byte field shares, and opaque plaintext cells (public data),
// never client values. Column naming conventions (the "#o"/"#f" twin
// columns for each client column) live in the client; the protocol only
// knows column kinds.
//
// Reads name the provider columns they want back (ScanRequest.Projection,
// JoinRequest.LeftProj/RightProj; empty means all, the IDsOnly flags mean
// none) and the response header repeats them in cell order, so what a
// statement costs on the wire is the cells it reads, not the row as stored:
// the client projects every unverified read onto field-share cells, and only
// a proof-carrying scan ships whole rows.
//
// Rows have one encoding, the share-row block (rowblock.go). It is the row
// list inside every Insert/Update/Rows message — and therefore
// inside every WAL, hint-journal and tx-log record — it is the payload of a
// store page, and, decoded in place (RowBlock), it is the resident page:
//
//	block := head [shape] ids rows
//	head  := uvarint(n<<1 | more)   n rows; more = 1: another block follows
//	shape := uvarint(cells), then per cell uvarint(width+1), 0 = variable;
//	         absent when n = 0
//	ids   := n × uvarint
//	rows  := n × row; a row is its cells in order, a fixed cell as its bare
//	         bytes, a variable cell as uvarint(len) then its bytes
//
// A block states its shape once, so a row of fixed cells costs its id and
// its share bytes and nothing else — a stored emp row is 85 bytes of shares
// plus a 1–3 byte id, a projected one 8 bytes per column — and a zero-cell
// block is just ids. The encoder of a row list makes a cell fixed when every
// row gives it the same length (so a one-row list costs what its cells and
// one length each cost); a page fixes share cells at the spec's widths (8
// bytes for a field share) and keeps plaintext cells variable. A ragged
// list — rows of differing cell counts — travels as consecutive blocks, one
// per run. Row lists decode into one header array, one cell index and one
// arena per message, three allocations however many rows; a page decodes
// into an id vector and an alias of its payload. Both check every count and
// length against the bytes that remain before allocating anything.
//
// An encoded message starts with its kind under a format tag: nothing written
// in an earlier format, which wrote the bare kind, decodes — it fails with
// ErrOldFormat (see formatTag).
package proto

import (
	"errors"
	"fmt"

	"sssdb/internal/opp"
)

// ColKind describes what a provider-side column holds.
type ColKind uint8

const (
	// KindOPP is an order-preserving share (filterable, orderable),
	// ColumnSpec.Width bytes in every cell of the column.
	KindOPP ColKind = 1
	// KindField is an 8-byte GF(2^61-1) Shamir share (summable).
	KindField ColKind = 2
	// KindPlain is an opaque plaintext byte string (public data columns).
	KindPlain ColKind = 3
)

func (k ColKind) String() string {
	switch k {
	case KindOPP:
		return "opp"
	case KindField:
		return "field"
	case KindPlain:
		return "plain"
	default:
		return fmt.Sprintf("ColKind(%d)", uint8(k))
	}
}

// Valid reports whether k is a known kind.
func (k ColKind) Valid() bool { return k >= KindOPP && k <= KindPlain }

// ColumnSpec declares one provider-side column.
type ColumnSpec struct {
	Name string
	Kind ColKind
	// Indexed requests a B+-tree index over the column's cell bytes. Only
	// OPP columns can be indexed: an index takes keys of one width.
	Indexed bool
	// Width is the byte width of every cell of a KindOPP column (what the
	// client's scheme for its domain serializes a share to), else zero.
	Width uint8
}

// maxOPPWidth is the widest such cell: the whole in-memory share.
const maxOPPWidth = len(opp.Share{})

// TableSpec declares a provider-side table.
type TableSpec struct {
	Name    string
	Columns []ColumnSpec
}

// ColumnIndex returns the position of the named column or -1.
func (t *TableSpec) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks structural sanity of a spec.
func (t *TableSpec) Validate() error {
	if t.Name == "" {
		return errors.New("proto: empty table name")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("proto: table %q has no columns", t.Name)
	}
	seen := make(map[string]bool, len(t.Columns))
	for _, c := range t.Columns {
		if c.Name == "" {
			return fmt.Errorf("proto: table %q has an unnamed column", t.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("proto: table %q: duplicate column %q", t.Name, c.Name)
		}
		seen[c.Name] = true
		if !c.Kind.Valid() {
			return fmt.Errorf("proto: table %q column %q: bad kind %d", t.Name, c.Name, c.Kind)
		}
		if c.Indexed && c.Kind != KindOPP {
			return fmt.Errorf("proto: table %q column %q: a %s column cannot be indexed, only fixed-width opp shares", t.Name, c.Name, c.Kind)
		}
		if isOPP := c.Kind == KindOPP; isOPP != (c.Width != 0) || int(c.Width) > maxOPPWidth {
			return fmt.Errorf("proto: table %q column %q: %s column of width %d (opp wants 1..%d, others 0)",
				t.Name, c.Name, c.Kind, c.Width, maxOPPWidth)
		}
	}
	return nil
}

// Row is one table row: a client-assigned id (identical across providers,
// which is what lets the client zip shares back together) and one cell per
// column in spec order.
type Row struct {
	ID    uint64
	Cells [][]byte
}

// FilterOp selects the comparison a provider applies in share space.
type FilterOp uint8

const (
	// FilterEq matches cells exactly equal to Lo.
	FilterEq FilterOp = 1
	// FilterRange matches cells in the inclusive interval [Lo, Hi].
	FilterRange FilterOp = 2
)

func (op FilterOp) String() string {
	switch op {
	case FilterEq:
		return "eq"
	case FilterRange:
		return "range"
	default:
		return fmt.Sprintf("FilterOp(%d)", uint8(op))
	}
}

// Filter is a share-space predicate on a single column. The provider never
// learns what client-side values the bounds encode.
type Filter struct {
	Col string
	Op  FilterOp
	Lo  []byte
	Hi  []byte // used by FilterRange only
}

// AggOp is a provider-side partial aggregation operator.
type AggOp uint8

const (
	// AggCount returns the number of matching rows.
	AggCount AggOp = 1
	// AggSum returns the field-share sum of ValueCol over matching rows;
	// by share linearity the client interpolates the true sum from k
	// provider partial sums.
	AggSum AggOp = 2
	// AggMin returns the matching row minimizing OrderCol.
	AggMin AggOp = 3
	// AggMax returns the matching row maximizing OrderCol.
	AggMax AggOp = 4
	// AggMedian returns the matching row at the lower-median position of
	// OrderCol. Order preservation makes this the same logical row at every
	// provider.
	AggMedian AggOp = 5
)

func (op AggOp) String() string {
	switch op {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggMedian:
		return "median"
	default:
		return fmt.Sprintf("AggOp(%d)", uint8(op))
	}
}

// ErrorCode classifies provider-side failures.
type ErrorCode uint16

const (
	CodeUnknown ErrorCode = iota
	CodeNoSuchTable
	CodeTableExists
	CodeNoSuchColumn
	CodeBadRequest
	CodeDuplicateRow
	CodeNoSuchRow
	CodeInternal
	// CodeServerBusy is a fast-fail admission rejection: the server's
	// scheduler shed the request before executing it (the tenant's queue
	// was full or the server is draining). The request never ran, so the
	// client may safely retry after a backoff.
	CodeServerBusy
	// CodeNoSuchTx answers a commit (or prepare-less operation) for a
	// transaction id the provider holds no staged state for: the staging is
	// in memory only, so a provider restart between prepare and commit
	// forgets it. The client treats this as "replay the ops via hints", not
	// as a hard rejection.
	CodeNoSuchTx
)

func (c ErrorCode) String() string {
	switch c {
	case CodeNoSuchTable:
		return "no such table"
	case CodeTableExists:
		return "table exists"
	case CodeNoSuchColumn:
		return "no such column"
	case CodeBadRequest:
		return "bad request"
	case CodeDuplicateRow:
		return "duplicate row id"
	case CodeNoSuchRow:
		return "no such row id"
	case CodeInternal:
		return "internal error"
	case CodeServerBusy:
		return "server busy"
	case CodeNoSuchTx:
		return "no such transaction"
	default:
		return "unknown error"
	}
}

// RemoteError is a provider failure surfaced to the client.
type RemoteError struct {
	Code ErrorCode
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("provider: %s: %s", e.Code, e.Msg)
}
