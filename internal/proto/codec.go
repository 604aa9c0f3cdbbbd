package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encoding limits protect both sides from hostile or corrupt frames.
const (
	maxStringLen = 1 << 16
	maxCellLen   = 1 << 20
	maxListLen   = 1 << 24
)

// ErrTruncated reports a frame shorter than its declared contents.
var ErrTruncated = errors.New("proto: truncated message")

// writer accumulates a message body. buf starts out in small, so a message
// that fits there costs no allocation beyond the writer itself; row lists
// grow buf once, to their exact size (see block).
type writer struct {
	buf   []byte
	small [64]byte
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

// take returns the next n bytes (n <= 8), or zeros once the reader has failed.
func (r *reader) take(n int) []byte {
	if r.err == nil && r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
	}
	if r.err != nil {
		return make([]byte, 8)
	}
	r.off += n
	return r.buf[r.off-n : r.off]
}

func (r *reader) u8() uint8   { return r.take(1)[0] }
func (r *reader) u16() uint16 { return binary.BigEndian.Uint16(r.take(2)) }
func (r *reader) u64() uint64 { return binary.BigEndian.Uint64(r.take(8)) }

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
	// Whatever the length counts — bytes, or elements of at least a byte —
	// the message cannot hold more of them than it has bytes left.
	if n > uint64(len(r.buf)-r.off) {
		r.fail(ErrTruncated)
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
	r.off += n
	return n
}

func (r *reader) str() string {
	n := r.length(maxStringLen)
	r.off += n
	return string(r.buf[r.off-n : r.off])
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("proto: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// codec describes a message body once for both directions: every call
// names a field, which is written from when the codec is encoding and read
// into when it is decoding. Encoding never stores to a field — one message
// is encoded for several providers at once. Encode and Decode each allocate
// one codec.
type codec struct {
	reading bool
	w       writer
	r       reader
}

func (c *codec) u8(p *uint8) {
	if c.reading {
		*p = c.r.u8()
	} else {
		c.w.u8(*p)
	}
}

func (c *codec) u16(p *uint16) {
	if c.reading {
		*p = c.r.u16()
	} else {
		c.w.u16(*p)
	}
}

func (c *codec) u64(p *uint64) {
	if c.reading {
		*p = c.r.u64()
	} else {
		c.w.u64(*p)
	}
}

func (c *codec) uvarint(p *uint64) {
	if c.reading {
		*p = c.r.uvarint()
	} else {
		c.w.uvarint(*p)
	}
}

// flags packs up to two booleans into one byte.
func (c *codec) flags(a, b *bool) {
	var f uint8
	if *a {
		f |= 1
	}
	if *b {
		f |= 2
	}
	if c.u8(&f); c.reading {
		*a, *b = f&1 != 0, f&2 != 0
	}
}

func (c *codec) bool(p *bool) {
	var none bool
	c.flags(p, &none)
}

func (c *codec) str(p *string) {
	if c.reading {
		*p = c.r.str()
	} else {
		c.w.str(*p)
	}
}

// bytes codes one length-prefixed byte string; an empty one reads as nil.
func (c *codec) bytes(p *[]byte) {
	if c.reading {
		*p = c.r.bytes()
	} else {
		c.w.bytes(*p)
	}
}

// rows codes a row list as share-row blocks (rowblock.go).
func (c *codec) rows(p *[]Row) {
	if c.reading {
		*p = c.r.rows()
	} else {
		c.w.rows(*p)
	}
}

// list codes a list of at most max elements as its length and then each
// element through elem; an empty list reads as nil.
func list[T any](c *codec, p *[]T, max uint64, elem func(*T)) {
	if !c.reading {
		c.w.uvarint(uint64(len(*p)))
	} else if n := c.r.length(max); n > 0 {
		*p = make([]T, n)
	} else {
		*p = nil
	}
	for i := range *p {
		elem(&(*p)[i])
	}
}

func (c *codec) strings(p *[]string)    { list(c, p, 4096, c.str) }
func (c *codec) u64s(p *[]uint64)       { list(c, p, maxListLen, c.u64) }
func (c *codec) byteSlices(p *[][]byte) { list(c, p, 1<<20, c.bytes) }

func (c *codec) spec(t *TableSpec) {
	c.str(&t.Name)
	list(c, &t.Columns, 4096, func(col *ColumnSpec) {
		c.str(&col.Name)
		c.u8((*uint8)(&col.Kind))
		c.bool(&col.Indexed)
		c.u8(&col.Width)
	})
}

// filter codes an optional filter: a presence byte, then its fields.
func (c *codec) filter(p **Filter) {
	present := *p != nil
	if c.bool(&present); c.reading {
		if *p = nil; present && c.r.err == nil {
			*p = &Filter{}
		}
	}
	f := *p
	if f == nil {
		return
	}
	c.str(&f.Col)
	c.u8((*uint8)(&f.Op))
	c.bytes(&f.Lo)
	c.bytes(&f.Hi)
}
