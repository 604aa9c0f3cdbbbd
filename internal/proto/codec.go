package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Encoding limits protect both sides from hostile or corrupt frames.
const (
	maxStringLen = 1 << 16
	maxCellLen   = 1 << 20
	maxListLen   = 1 << 24
)

// ErrTruncated reports a frame shorter than its declared contents.
var ErrTruncated = errors.New("proto: truncated message")

// writer accumulates a message body.
type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *writer) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// reader consumes a message body, latching the first error.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil {
		return 0
	}
	if r.off+2 > len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// length reads a uvarint length bounded by max.
func (r *reader) length(max uint64) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > max {
		r.fail(fmt.Errorf("proto: length %d exceeds limit %d", n, max))
		return 0
	}
	if n > math.MaxInt32 {
		r.fail(fmt.Errorf("proto: absurd length %d", n))
		return 0
	}
	return int(n)
}

// bytes returns a copy of one length-prefixed byte string (nil when empty).
func (r *reader) bytes() []byte {
	n := r.skipBytes()
	if n == 0 {
		return nil
	}
	return append([]byte(nil), r.buf[r.off-n:r.off]...)
}

// skipBytes steps over one length-prefixed byte string, returning its
// payload length (0 on error); the payload is r.buf[r.off-n : r.off].
func (r *reader) skipBytes() int {
	n := r.length(maxCellLen)
	if r.err != nil {
		return 0
	}
	if r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return n
}

func (r *reader) str() string {
	n := r.length(maxStringLen)
	if r.err != nil {
		return ""
	}
	if r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) bool() bool { return r.u8() != 0 }

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("proto: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// Shared sub-structure codecs.

func writeSpec(w *writer, t *TableSpec) {
	w.str(t.Name)
	w.uvarint(uint64(len(t.Columns)))
	for _, c := range t.Columns {
		w.str(c.Name)
		w.u8(uint8(c.Kind))
		w.bool(c.Indexed)
	}
}

func readSpec(r *reader) TableSpec {
	var t TableSpec
	t.Name = r.str()
	n := r.length(4096)
	if r.err != nil {
		return t
	}
	t.Columns = make([]ColumnSpec, n)
	for i := range t.Columns {
		t.Columns[i].Name = r.str()
		t.Columns[i].Kind = ColKind(r.u8())
		t.Columns[i].Indexed = r.bool()
	}
	return t
}

func writeRow(w *writer, row Row) {
	w.uvarint(row.ID)
	w.uvarint(uint64(len(row.Cells)))
	for _, c := range row.Cells {
		w.bytes(c)
	}
}

// maxRowCells bounds the cells of one decoded row.
const maxRowCells = 4096

func readRow(r *reader) Row {
	var row Row
	row.ID = r.uvarint()
	n := r.length(maxRowCells)
	if r.err != nil || n == 0 {
		return row
	}
	row.Cells = make([][]byte, n)
	for i := range row.Cells {
		row.Cells[i] = r.bytes()
	}
	return row
}

func writeRows(w *writer, rows []Row) {
	w.uvarint(uint64(len(rows)))
	for _, row := range rows {
		writeRow(w, row)
	}
}

// readRows decodes a row list into three allocations, however many rows it
// holds: the Row headers, one [][]byte backing every row's Cells, and one
// arena the cell payloads are copied into (so nothing aliases the frame
// buffer). A first pass validates the encoding and sizes them; the second
// fills them. Each cell is capped to its own bytes, so appending to one can
// never overwrite its neighbour.
func readRows(r *reader) []Row {
	n := r.length(maxListLen)
	if r.err != nil || n == 0 {
		return nil
	}
	start := r.off
	cells, payload := 0, 0
	for i := 0; i < n; i++ {
		r.uvarint() // row id
		nc := r.length(maxRowCells)
		for j := 0; j < nc; j++ {
			payload += r.skipBytes()
		}
		if r.err != nil {
			return nil
		}
		cells += nc
	}
	rows := make([]Row, n)
	index := make([][]byte, cells)
	arena := make([]byte, payload)
	r.off = start
	for i := range rows {
		rows[i].ID = r.uvarint()
		nc := r.length(maxRowCells)
		if nc == 0 {
			continue
		}
		rows[i].Cells = index[:nc:nc]
		index = index[nc:]
		for j := range rows[i].Cells {
			if cn := r.skipBytes(); cn > 0 {
				copy(arena, r.buf[r.off-cn:r.off])
				rows[i].Cells[j] = arena[:cn:cn]
				arena = arena[cn:]
			}
		}
	}
	return rows
}

func writeFilter(w *writer, f *Filter) {
	if f == nil {
		w.bool(false)
		return
	}
	w.bool(true)
	w.str(f.Col)
	w.u8(uint8(f.Op))
	w.bytes(f.Lo)
	w.bytes(f.Hi)
}

func readFilter(r *reader) *Filter {
	if !r.bool() || r.err != nil {
		return nil
	}
	f := &Filter{}
	f.Col = r.str()
	f.Op = FilterOp(r.u8())
	f.Lo = r.bytes()
	f.Hi = r.bytes()
	return f
}

func writeStrings(w *writer, ss []string) {
	w.uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

func readStrings(r *reader) []string {
	n := r.length(4096)
	if r.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
}

func writeU64s(w *writer, vs []uint64) {
	w.uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.u64(v)
	}
}

func readU64s(r *reader) []uint64 {
	n := r.length(maxListLen)
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.u64()
	}
	return vs
}
