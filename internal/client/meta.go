package client

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"sssdb/internal/numenc"
	"sssdb/internal/opp"
	"sssdb/internal/proto"
	"sssdb/internal/sql"
)

// Provider-side column name suffixes for a client column.
const (
	suffixOPP   = "#o" // order-preserving share, indexed
	suffixField = "#f" // random field share
	suffixPlain = "#p" // opaque payload (blob)
)

// colMeta describes one client-level column and its encodings.
type colMeta struct {
	Name string
	Type sql.TypeName
	Arg  int // VARCHAR width / DECIMAL scale

	// Queryable columns carry codecs and the per-domain OPP scheme, one
	// instance shared by every provider group (see domainScheme).
	intCodec *numenc.SignedCodec
	decCodec *numenc.DecimalCodec
	strCodec *numenc.StringCodec
	oppSch   *opp.Scheme
	domain   string
	bits     uint
}

// queryable reports whether the column participates in shares/predicates.
func (c *colMeta) queryable() bool { return c.Type != sql.TypeBlob }

// tableMeta is the catalog entry for one outsourced table: its schema, how
// its rows are partitioned across the provider groups, and each group's
// row-id frontier. Name, Public, Cols, shardCol and version never change
// after the entry is built.
type tableMeta struct {
	Name   string
	Public bool
	Cols   []colMeta
	// shardCol is the index of the shard-key column, whose encoded value
	// picks a row's group; -1 means rows hash on the insert sequence.
	shardCol int
	// version counts shard-map generations for this table; a catalog import
	// into a client with a different group count is rejected, which is how a
	// client detects a split it does not understand.
	version int
	// nextSeq is the insert-sequence frontier (sequence hashing only).
	nextSeq atomic.Uint64
	// nextID[g] is group g's private row-id frontier; engine g moves it
	// under its insMu.
	nextID []uint64
	// dropped is set by DROP TABLE, which holds every group's statement lock
	// exclusively; Client.lock reads it under any of them.
	dropped bool
}

// newTableMeta builds an empty table's catalog entry; CREATE TABLE and
// ImportCatalog both build through it, so both refuse the same schemas. A
// shard key ("" = hash the insert sequence) means something only across
// more than one group.
func (c *Client) newTableMeta(name string, public bool, defs []sql.ColumnDef, shardKey string) (*tableMeta, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty table name", ErrBadSchema)
	}
	if _, err := c.cat.table(name); err == nil {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("%w: table %q has no columns", ErrBadSchema, name)
	}
	meta := &tableMeta{Name: name, Public: public, shardCol: -1, version: 1, nextID: make([]uint64, len(c.groups))}
	for g := range meta.nextID {
		meta.nextID[g] = 1
	}
	seen := make(map[string]bool)
	for _, def := range defs {
		if def.Name == "" || seen[def.Name] {
			return nil, fmt.Errorf("%w: empty or duplicate column %q in table %q", ErrBadSchema, def.Name, name)
		}
		seen[def.Name] = true
		cm, err := c.buildColMeta(def)
		if err != nil {
			return nil, err
		}
		meta.Cols = append(meta.Cols, cm)
	}
	if shardKey != "" && len(c.groups) > 1 {
		if meta.shardCol = meta.colIndex(shardKey); meta.shardCol < 0 {
			return nil, fmt.Errorf("%w: shard key %q is not a column of table %q", ErrBadSchema, shardKey, name)
		}
		if !meta.Cols[meta.shardCol].queryable() {
			return nil, fmt.Errorf("%w: shard key %q of table %q is a BLOB", ErrBadSchema, shardKey, name)
		}
	}
	return meta, nil
}

// colIndex returns the position of a client column in t.Cols, or -1.
func (t *tableMeta) colIndex(name string) int {
	for i := range t.Cols {
		if t.Cols[i].Name == name {
			return i
		}
	}
	return -1
}

func (t *tableMeta) col(name string) (*colMeta, error) {
	if i := t.colIndex(name); i >= 0 {
		return &t.Cols[i], nil
	}
	return nil, fmt.Errorf("%w: column %q of table %q", ErrNoSuchColumn, name, t.Name)
}

// valueCell names the provider column a client column's value is rebuilt
// from: the field share, or the opaque payload of a blob.
func (c *colMeta) valueCell() string {
	if c.queryable() {
		return c.Name + suffixField
	}
	return c.Name + suffixPlain
}

// allCols lists every client column index: what a statement that rewrites
// whole rows (UPDATE, repair reseed) reads.
func (t *tableMeta) allCols() []int {
	cols := make([]int, len(t.Cols))
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// fetchPlan is what a read asks each provider for, and where the client
// columns it will reconstruct land in every returned row.
type fetchPlan struct {
	// names are the provider columns in response cell order: the request's
	// projection, and exactly the header a provider must answer with. None
	// means the read wants row ids alone (see idsOnly).
	names []string
	// cell[ci] is the position of client column ci's value cell in a
	// response row, or -1 when the column is not fetched.
	cell []int
}

// fetchPlan projects a read onto the value cells of the given client
// columns (indices into t.Cols, duplicates allowed), so no order-preserving
// share — three quarters of a stored row — crosses the wire.
func (t *tableMeta) fetchPlan(cols ...[]int) fetchPlan {
	fp := fetchPlan{cell: make([]int, len(t.Cols))}
	for _, set := range cols {
		for _, ci := range set {
			fp.cell[ci] = 1
		}
	}
	for ci, wanted := range fp.cell {
		fp.cell[ci] = -1
		if wanted == 1 {
			fp.cell[ci] = len(fp.names)
			fp.names = append(fp.names, t.Cols[ci].valueCell())
		}
	}
	return fp
}

// idsOnly reports a read of no cell at all. An empty projection means
// "every column" on the wire, so such a request must say so with its
// IDsOnly flag; the answer is then zero-cell blocks, just ids.
func (fp *fetchPlan) idsOnly() bool { return len(fp.names) == 0 }

// scanPlan is the fetch plan of a table scan whose caller reads cols: their
// value cells plus those of the columns the residual predicates test — or
// every stored cell when the scan is verified, whose Merkle proof hashes
// whole rows.
func (t *tableMeta) scanPlan(preds []compiledPred, cols []int, verified bool) fetchPlan {
	if !verified {
		return t.fetchPlan(cols, predCols(residualPreds(preds)))
	}
	fp := fetchPlan{cell: make([]int, len(t.Cols))}
	for _, col := range t.providerSpec().Columns {
		fp.names = append(fp.names, col.Name)
	}
	for ci := range t.Cols {
		fp.cell[ci] = slices.Index(fp.names, t.Cols[ci].valueCell())
	}
	return fp
}

// providerSpec derives the share-space table spec shipped to providers; an
// order-preserving column is as wide as its domain's scheme.
func (t *tableMeta) providerSpec() proto.TableSpec {
	spec := proto.TableSpec{Name: t.Name}
	for _, c := range t.Cols {
		if c.queryable() {
			spec.Columns = append(spec.Columns,
				proto.ColumnSpec{Name: c.Name + suffixOPP, Kind: proto.KindOPP, Indexed: true, Width: uint8(c.oppSch.Width())},
				proto.ColumnSpec{Name: c.Name + suffixField, Kind: proto.KindField},
			)
		} else {
			spec.Columns = append(spec.Columns,
				proto.ColumnSpec{Name: c.Name + suffixPlain, Kind: proto.KindPlain})
		}
	}
	return spec
}

// domainSignature identifies the value domain of a column. The paper keys
// order-preserving polynomial construction by DOMAIN, not attribute
// ("polynomials are constructed for each domain not for each attribute"),
// which is exactly what makes same-domain referential joins executable at
// the provider. Two columns share a domain iff their signatures match.
func domainSignature(typ sql.TypeName, arg int, alphabet string, intBits uint) string {
	switch typ {
	case sql.TypeInt:
		return fmt.Sprintf("int:%d", intBits)
	case sql.TypeDecimal:
		return fmt.Sprintf("dec:%d:%d", arg, intBits)
	case sql.TypeVarchar:
		// Alphabet contributes to the signature; hash it to keep it short.
		h := sha256.Sum256([]byte(alphabet))
		return fmt.Sprintf("str:%d:%x", arg, h[:6])
	default:
		return ""
	}
}

// buildColMeta wires codecs and the domain OPP scheme for a column.
func (c *Client) buildColMeta(def sql.ColumnDef) (colMeta, error) {
	cm := colMeta{Name: def.Name, Type: def.Type, Arg: def.Arg}
	var bits uint
	switch def.Type {
	case sql.TypeInt:
		codec, err := numenc.NewSignedCodec(c.opts.IntBits)
		if err != nil {
			return cm, err
		}
		cm.intCodec = codec
		bits = c.opts.IntBits
	case sql.TypeDecimal:
		if def.Arg < 0 || def.Arg > 12 {
			return cm, fmt.Errorf("%w: DECIMAL scale %d", ErrBadSchema, def.Arg)
		}
		codec, err := numenc.NewDecimalCodec(def.Arg, c.opts.IntBits)
		if err != nil {
			return cm, err
		}
		cm.decCodec = codec
		bits = c.opts.IntBits
	case sql.TypeVarchar:
		if def.Arg < 1 {
			return cm, fmt.Errorf("%w: VARCHAR width %d", ErrBadSchema, def.Arg)
		}
		codec, err := numenc.NewStringCodec(c.opts.Alphabet, def.Arg)
		if err != nil {
			return cm, err
		}
		cm.strCodec = codec
		bits = codec.Bits()
	case sql.TypeBlob:
		return cm, nil
	default:
		return cm, fmt.Errorf("%w: unknown type %v", ErrBadSchema, def.Type)
	}
	cm.bits = bits
	cm.domain = domainSignature(def.Type, def.Arg, c.opts.Alphabet, c.opts.IntBits)
	sch, err := c.domainScheme(cm.domain, bits)
	if err != nil {
		return cm, err
	}
	cm.oppSch = sch
	return cm, nil
}

// domainScheme returns (building and caching on first use) the OPP scheme
// of a domain. The scheme key is derived from the master key and the domain
// signature, so all columns of one domain share polynomials across tables
// and across groups, and one instance serves them all: its bulk encodes
// (SplitInto) take no lock, and only repeating query bounds and
// reconstructions go through its share memo.
func (c *Client) domainScheme(domain string, bits uint) (*opp.Scheme, error) {
	if sch, ok := c.domains[domain]; ok {
		return sch, nil
	}
	mac := hmac.New(sha256.New, c.opts.MasterKey)
	mac.Write([]byte("sssdb/domain/"))
	mac.Write([]byte(domain))
	sch, err := opp.NewScheme(opp.Params{
		Degree:     c.opts.OPPDegree,
		DomainBits: bits,
		N:          c.opts.N,
	}, mac.Sum(nil))
	if err != nil {
		return nil, err
	}
	c.domains[domain] = sch
	return sch, nil
}

// parseValue converts a SQL literal into a typed Value for a column.
func (cm *colMeta) parseValue(lit sql.Literal) (Value, error) {
	switch cm.Type {
	case sql.TypeInt:
		if lit.IsString {
			return Value{}, fmt.Errorf("%w: column %q wants an integer, got string %q",
				ErrTypeMismatch, cm.Name, lit.Text)
		}
		if strings.ContainsRune(lit.Text, '.') {
			return Value{}, fmt.Errorf("%w: column %q wants an integer, got %q",
				ErrTypeMismatch, cm.Name, lit.Text)
		}
		var v int64
		if _, err := fmt.Sscan(lit.Text, &v); err != nil {
			return Value{}, fmt.Errorf("%w: %q: %v", ErrTypeMismatch, lit.Text, err)
		}
		return IntValue(v), nil
	case sql.TypeDecimal:
		if lit.IsString {
			return Value{}, fmt.Errorf("%w: column %q wants a decimal, got string %q",
				ErrTypeMismatch, cm.Name, lit.Text)
		}
		u, err := cm.decCodec.EncodeString(lit.Text)
		if err != nil {
			return Value{}, fmt.Errorf("%w: %v", ErrTypeMismatch, err)
		}
		scaled, err := cm.decCodec.DecodeScaled(u)
		if err != nil {
			return Value{}, err
		}
		return DecimalValue(scaled, cm.Arg), nil
	case sql.TypeVarchar:
		if !lit.IsString {
			return Value{}, fmt.Errorf("%w: column %q wants a string, got %q",
				ErrTypeMismatch, cm.Name, lit.Text)
		}
		return StringValue(lit.Text), nil
	case sql.TypeBlob:
		if !lit.IsString {
			return Value{}, fmt.Errorf("%w: column %q wants a string payload, got %q",
				ErrTypeMismatch, cm.Name, lit.Text)
		}
		return BytesValue([]byte(lit.Text)), nil
	default:
		return Value{}, fmt.Errorf("%w: column %q", ErrBadSchema, cm.Name)
	}
}

// encode maps a typed Value onto the column's numeric domain.
func (cm *colMeta) encode(v Value) (uint64, error) {
	switch cm.Type {
	case sql.TypeInt:
		if v.Kind != KindInt {
			return 0, fmt.Errorf("%w: column %q wants int, got %v", ErrTypeMismatch, cm.Name, v.Kind)
		}
		return cm.intCodec.Encode(v.I)
	case sql.TypeDecimal:
		if v.Kind != KindDecimal && v.Kind != KindInt {
			return 0, fmt.Errorf("%w: column %q wants decimal, got %v", ErrTypeMismatch, cm.Name, v.Kind)
		}
		scaled := v.I
		if v.Kind == KindInt {
			for i := 0; i < cm.Arg; i++ {
				scaled *= 10
			}
		}
		return cm.decCodec.EncodeScaled(scaled)
	case sql.TypeVarchar:
		if v.Kind != KindString {
			return 0, fmt.Errorf("%w: column %q wants string, got %v", ErrTypeMismatch, cm.Name, v.Kind)
		}
		return cm.strCodec.Encode(v.S)
	default:
		return 0, fmt.Errorf("%w: column %q is not queryable", ErrTypeMismatch, cm.Name)
	}
}

// decode maps a numeric domain value back to a typed Value.
func (cm *colMeta) decode(u uint64) (Value, error) {
	switch cm.Type {
	case sql.TypeInt:
		v, err := cm.intCodec.Decode(u)
		if err != nil {
			return Value{}, err
		}
		return IntValue(v), nil
	case sql.TypeDecimal:
		scaled, err := cm.decCodec.DecodeScaled(u)
		if err != nil {
			return Value{}, err
		}
		return DecimalValue(scaled, cm.Arg), nil
	case sql.TypeVarchar:
		s, err := cm.strCodec.Decode(u)
		if err != nil {
			return Value{}, err
		}
		return StringValue(s), nil
	default:
		return Value{}, fmt.Errorf("%w: column %q is not queryable", ErrTypeMismatch, cm.Name)
	}
}

// domainBounds returns the smallest and largest encodable domain values.
func (cm *colMeta) domainBounds() (uint64, uint64) {
	switch cm.Type {
	case sql.TypeInt, sql.TypeDecimal:
		return 0, uint64(1)<<cm.bits - 1
	case sql.TypeVarchar:
		return 0, cm.strCodec.Max()
	default:
		return 0, 0
	}
}

// shareBounds returns provider p's serialized order-preserving shares of the
// encoded values lo and hi: the bounds of a filter, and what a cell of the
// column that provider stores compares against.
func (cm *colMeta) shareBounds(p int, lo, hi uint64) (loCell, hiCell []byte, err error) {
	sch := cm.oppSch
	loShare, err := sch.ShareAt(lo, p)
	if err != nil {
		return nil, nil, err
	}
	hiShare, err := sch.ShareAt(hi, p)
	w := sch.Width()
	both := sch.AppendShare(sch.AppendShare(make([]byte, 0, 2*w), loShare), hiShare)
	return both[:w:w], both[w:], err
}

// fieldCellSize is the width of a GF(p) share as a provider cell.
const fieldCellSize = 8
