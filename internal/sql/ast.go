package sql

import "fmt"

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
}

// TypeName enumerates client-level column types.
type TypeName int

// Column types of the dialect.
const (
	// TypeInt is a signed integer, dual-shared (OPP + field).
	TypeInt TypeName = iota + 1
	// TypeDecimal is a fixed-point decimal with a scale, dual-shared.
	TypeDecimal
	// TypeVarchar is a bounded string encoded to an order-preserving
	// number (paper Sec. V-B), dual-shared.
	TypeVarchar
	// TypeBlob is an unqueryable payload: AES-GCM encrypted client-side for
	// private tables, stored raw for public ones.
	TypeBlob
)

func (t TypeName) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeDecimal:
		return "DECIMAL"
	case TypeVarchar:
		return "VARCHAR"
	case TypeBlob:
		return "BLOB"
	default:
		return fmt.Sprintf("TypeName(%d)", int(t))
	}
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Type TypeName
	// Arg carries VARCHAR width or DECIMAL scale.
	Arg int
}

// CreateTable is CREATE [PUBLIC] TABLE name (col TYPE, ...).
type CreateTable struct {
	Name    string
	Public  bool
	Columns []ColumnDef
}

func (*CreateTable) stmt() {}

// DropTable is DROP TABLE name.
type DropTable struct {
	Name string
}

func (*DropTable) stmt() {}

// Literal is a typed constant from the query text.
type Literal struct {
	// IsString distinguishes 'text' from numeric literals.
	IsString bool
	// Text holds the raw literal (for numbers, including sign/decimal dot).
	Text string
}

// Insert is INSERT INTO name VALUES (...), (...).
type Insert struct {
	Table string
	Rows  [][]Literal
}

func (*Insert) stmt() {}

// CompareOp enumerates predicate comparisons.
type CompareOp int

// Predicate operators.
const (
	OpEq CompareOp = iota + 1
	OpLt
	OpLe
	OpGt
	OpGe
	OpBetween
	OpLikePrefix
	OpIn
)

func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBetween:
		return "BETWEEN"
	case OpLikePrefix:
		return "LIKE"
	case OpIn:
		return "IN"
	default:
		return fmt.Sprintf("CompareOp(%d)", int(op))
	}
}

// ColumnRef names a column, optionally table-qualified (joins).
type ColumnRef struct {
	Table string // empty when unqualified
	Name  string
}

func (c ColumnRef) String() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Predicate is one conjunct of a WHERE clause: col OP literal(s).
type Predicate struct {
	Col CompareColumn
	Op  CompareOp
	Lo  Literal
	Hi  Literal // BETWEEN only
	// List holds the IN members (OpIn only).
	List []Literal
}

// CompareColumn aliases ColumnRef for readability in predicates.
type CompareColumn = ColumnRef

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions.
const (
	AggNone AggFunc = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
	AggMedian
)

func (f AggFunc) String() string {
	switch f {
	case AggNone:
		return ""
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggMedian:
		return "MEDIAN"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// SelectItem is one output column: either a plain column reference, `*`,
// or an aggregate over a column (or `*` for COUNT).
type SelectItem struct {
	Star bool
	Agg  AggFunc
	Col  ColumnRef
}

// JoinClause is JOIN table ON left = right.
type JoinClause struct {
	Table string
	Left  ColumnRef
	Right ColumnRef
}

// Select is SELECT items FROM table [JOIN ...] [WHERE p AND p ...]
// [GROUP BY col] [LIMIT n] [VERIFIED].
type Select struct {
	Items []SelectItem
	Table string
	Join  *JoinClause
	Where []Predicate
	// GroupBy names the grouping column (nil when absent). Groups align
	// across providers because share order equals value order.
	GroupBy *ColumnRef
	// Having filters groups by aggregate values (GROUP BY only).
	Having []HavingPredicate
	// OrderBy names the sort column (nil = provider/index order).
	OrderBy *OrderClause
	// Limit caps the rows (0 = no LIMIT; the parser refuses LIMIT 0).
	Limit uint64
	// Verified requests Merkle completeness verification of the scan.
	Verified bool
}

func (*Select) stmt() {}

// HavingPredicate is one HAVING conjunct: agg(col) OP literal(s).
type HavingPredicate struct {
	Item SelectItem
	Op   CompareOp
	Lo   Literal
	Hi   Literal // BETWEEN only
}

// OrderClause is ORDER BY col [ASC|DESC].
type OrderClause struct {
	Col  ColumnRef
	Desc bool
}

// Assignment is one SET col = literal.
type Assignment struct {
	Col   string
	Value Literal
}

// Update is UPDATE table SET a = v [, ...] [WHERE ...].
type Update struct {
	Table string
	Set   []Assignment
	Where []Predicate
}

func (*Update) stmt() {}

// Delete is DELETE FROM table [WHERE ...].
type Delete struct {
	Table string
	Where []Predicate
}

func (*Delete) stmt() {}

// Explain is EXPLAIN <select | update | delete>: it asks the client to
// describe how the statement would execute (share rewriting, push-down
// decisions, fetched cells, quorum) without running it. Stmt is a *Select,
// *Update or *Delete.
type Explain struct {
	Stmt Statement
}

func (*Explain) stmt() {}

// BeginTx is BEGIN [TRANSACTION|WORK]: start a multi-statement transaction.
type BeginTx struct{}

func (*BeginTx) stmt() {}

// CommitTx is COMMIT [TRANSACTION|WORK]: run the transaction's two-phase
// commit across the provider fleet.
type CommitTx struct{}

func (*CommitTx) stmt() {}

// RollbackTx is ROLLBACK [TRANSACTION|WORK]: discard the transaction's
// buffered statements.
type RollbackTx struct{}

func (*RollbackTx) stmt() {}
