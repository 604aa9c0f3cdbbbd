package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Variable is the Shape width of a cell that carries its own length.
const Variable = -1

// maxRowCells bounds the cells of one row.
const maxRowCells = 4096

// uvarintSize returns the encoded length of v as a uvarint.
func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// BatchBytes is the row payload one piece of a row response carries: a store
// cursor's batch, which a provider sends as one chunk frame.
const BatchBytes = 256 << 10

// --- Row lists: []Row to blocks and back ---

// colStat is what the encoder learns about one cell position in its sizing
// pass: the first row's length, whether every row repeats it, and the bytes
// the position costs if not.
type colStat struct {
	width    int
	ragged   bool
	varBytes int
}

// rows encodes a row list as consecutive blocks, one per run of rows with
// the same cell count: one block unless the list is ragged.
func (w *writer) rows(rows []Row) {
	for {
		run := 0
		for run < len(rows) && len(rows[run].Cells) == len(rows[0].Cells) {
			run++
		}
		w.block(rows[:run], run < len(rows))
		if rows = rows[run:]; len(rows) == 0 {
			return
		}
	}
}

// block encodes rows of one cell count. A cell position is fixed when every
// row gives it the same length; the pass that finds that out also sizes the
// block exactly, so the buffer grows once.
func (w *writer) block(rows []Row, more bool) {
	head := uint64(len(rows)) << 1
	if more {
		head |= 1
	}
	if len(rows) == 0 {
		w.uvarint(head)
		return
	}
	var scratch [16]colStat
	cols := scratch[:0]
	if nc := len(rows[0].Cells); nc > len(scratch) {
		cols = make([]colStat, 0, nc)
	}
	for _, c := range rows[0].Cells {
		cols = append(cols, colStat{width: len(c)})
	}
	size := uvarintSize(head) + uvarintSize(uint64(len(cols)))
	for _, r := range rows {
		size += uvarintSize(r.ID)
		for j, c := range r.Cells {
			cols[j].ragged = cols[j].ragged || len(c) != cols[j].width
			cols[j].varBytes += uvarintSize(uint64(len(c))) + len(c)
		}
	}
	for _, c := range cols {
		if c.ragged {
			size += 1 + c.varBytes
		} else {
			size += uvarintSize(uint64(c.width)+1) + len(rows)*c.width
		}
	}
	w.buf = slices.Grow(w.buf, size)
	w.uvarint(head)
	w.uvarint(uint64(len(cols)))
	for _, c := range cols {
		if c.ragged {
			w.u8(0)
		} else {
			w.uvarint(uint64(c.width) + 1)
		}
	}
	for _, r := range rows {
		w.uvarint(r.ID)
	}
	for _, r := range rows {
		for j, c := range r.Cells {
			if cols[j].ragged {
				w.uvarint(uint64(len(c)))
			}
			w.buf = append(w.buf, c...)
		}
	}
}

// blockHead is a block's header as parsed: row count, continuation flag and
// shape.
type blockHead struct {
	n      int
	more   bool
	widths []int // per cell: fixed width or Variable
	stride int   // bytes of one row's fixed cells
	nvar   int   // cells that are Variable
}

// shapeScratch holds the widths of any ordinary shape on the caller's stack.
type shapeScratch [16]int

// blockHead parses a block's head and shape, the widths into buf when they
// fit there.
func (r *reader) blockHead(buf *shapeScratch) (h blockHead) {
	v := r.uvarint()
	h.more = v&1 == 1
	if r.err != nil {
		return
	}
	if v>>1 > maxListLen {
		r.fail(fmt.Errorf("proto: row block of %d rows exceeds limit %d", v>>1, maxListLen))
		return
	}
	if h.n = int(v >> 1); h.n == 0 {
		if h.more {
			r.fail(errors.New("proto: empty row block before another"))
		}
		return h
	}
	nc := r.length(maxRowCells)
	if h.widths = buf[:min(nc, len(buf))]; nc > len(buf) {
		h.widths = make([]int, nc)
	}
	for j := range h.widths {
		w := r.length(maxCellLen+1) - 1
		if h.widths[j] = w; w < 0 {
			h.nvar++
		} else {
			h.stride += w
		}
	}
	return h
}

// skipIDs steps over the n ids of the block h describes; an id is at least
// one byte, so a row count the remaining bytes cannot hold fails at once.
func (r *reader) skipIDs(h *blockHead) {
	if r.err == nil && h.n > len(r.buf)-r.off {
		r.fail(ErrTruncated)
	}
	for i := 0; i < h.n && r.err == nil; i++ {
		r.uvarint()
	}
}

// skipSlab steps over the rows of the block h describes, checking rows ×
// fixed width and every variable length against the bytes that remain:
// nothing is allocated for a block before both skips have accepted it.
func (r *reader) skipSlab(h *blockHead) {
	if r.err != nil {
		return
	}
	if h.stride > 0 && h.n > (len(r.buf)-r.off)/h.stride {
		r.fail(ErrTruncated)
		return
	}
	if h.nvar == 0 {
		r.off += h.n * h.stride
		return
	}
	for i := 0; i < h.n && r.err == nil; i++ {
		for _, w := range h.widths {
			if w < 0 {
				r.skipBytes()
			} else if r.off += w; r.off > len(r.buf) {
				r.fail(ErrTruncated)
			}
		}
	}
}

// nextCell splits the next cell off validated row bytes: w bytes when the
// width is fixed, a uvarint length and that many bytes when it is Variable.
// The cell is capped to its own bytes, so appending to it cannot reach its
// neighbour.
func nextCell(slab []byte, w int) (cell, rest []byte) {
	if w < 0 {
		l, k := binary.Uvarint(slab)
		slab, w = slab[k:], int(l)
	}
	return slab[:w:w], slab[w:]
}

// rows decodes a row list into three allocations, however many rows and
// blocks it holds: the Row headers, one [][]byte backing every row's Cells,
// and one arena the row bytes are copied into (so nothing aliases the frame
// buffer). A first pass validates the encoding and sizes them; the second
// fills them. Empty cells decode as nil.
func (r *reader) rows() []Row {
	var buf shapeScratch
	var h blockHead
	start := r.off
	n, cells, slab := 0, 0, 0
	for more := true; more && r.err == nil; more = h.more {
		h = r.blockHead(&buf)
		r.skipIDs(&h)
		slabOff := r.off
		r.skipSlab(&h)
		n, cells, slab = n+h.n, cells+h.n*len(h.widths), slab+r.off-slabOff
		if n > maxListLen || cells > maxListLen {
			r.fail(fmt.Errorf("proto: row list of %d rows, %d cells exceeds limit %d", n, cells, maxListLen))
		}
	}
	if r.err != nil || n == 0 {
		return nil
	}
	rows := make([]Row, n)
	index := make([][]byte, cells)
	arena := make([]byte, slab)
	r.off = start
	for rest, more := rows, true; more; more = h.more {
		h = r.blockHead(&buf)
		blk := rest[:h.n]
		rest = rest[h.n:]
		for i := range blk {
			blk[i].ID = r.uvarint()
		}
		slabOff := r.off
		r.skipSlab(&h)
		body := arena[:copy(arena, r.buf[slabOff:r.off])]
		arena = arena[len(body):]
		nc := len(h.widths)
		for i := 0; i < len(blk) && nc > 0; i++ {
			blk[i].Cells, index = index[:nc:nc], index[nc:]
			for j, w := range h.widths {
				var cell []byte
				if cell, body = nextCell(body, w); len(cell) > 0 {
					blk[i].Cells[j] = cell
				}
			}
		}
	}
	return rows
}

// --- RowBlock: the decoded block, and the resident form of a store page ---

// Shape is the cell layout every row of a block shares. A store table has
// one Shape and all its pages point at it.
type Shape struct {
	// Widths holds, per cell, its fixed width or Variable.
	Widths   []int
	stride   int   // bytes of one row's fixed cells
	colOff   []int // cell j's offset in a row; all-fixed shapes only
	variable bool  // some cell is Variable
}

// NewShape builds the shape of the given widths, which it retains.
func NewShape(widths []int) *Shape {
	s := &Shape{Widths: widths, variable: slices.Contains(widths, Variable)}
	if !s.variable {
		s.colOff = make([]int, len(widths))
	}
	for j, w := range widths {
		if !s.variable {
			s.colOff[j] = s.stride
		}
		s.stride += max(w, 0)
	}
	return s
}

// RowBlock is one block held decoded: an id vector and one byte slab of the
// rows back to back exactly as encoded, so decoding aliases its input and
// encoding is a header plus a copy. As a page its ids ascend. The mutating
// methods edit the slab in place: bytes handed out by Cell are only valid
// until the next mutation, so whoever lets go of the lock that orders reads
// against mutations must have copied them first.
type RowBlock struct {
	*Shape
	IDs  []uint64
	Slab []byte
	// Offs[i] is where row i starts in Slab, plus one closing entry. Only
	// shapes with a Variable cell have it; otherwise row i is at i × stride.
	Offs    []uint32
	idBytes int // encoded bytes of IDs
}

// NewRowBlock returns an empty block of the given shape.
func NewRowBlock(s *Shape) *RowBlock {
	b := &RowBlock{Shape: s}
	if s.variable {
		b.Offs = []uint32{0}
	}
	return b
}

// Decode makes b the block encoded in data: exactly one, no continuation, no
// trailing bytes and, when want is non-nil, of exactly that shape (which b
// then shares). The ids are decoded, Slab aliases data.
func (b *RowBlock) Decode(data []byte, want *Shape) error {
	var buf shapeScratch
	r := &reader{buf: data}
	h := r.blockHead(&buf)
	idsOff := r.off
	r.skipIDs(&h)
	slabOff := r.off
	r.skipSlab(&h)
	if r.err == nil && (h.more || len(data) > math.MaxUint32) {
		r.fail(errors.New("proto: row block continues or exceeds 4 GiB"))
	}
	if err := r.done(); err != nil {
		return err
	}
	switch {
	case want == nil:
		want = NewShape(slices.Clone(h.widths))
	case h.n > 0 && !slices.Equal(h.widths, want.Widths):
		return fmt.Errorf("proto: row block of shape %v, want %v", h.widths, want.Widths)
	}
	*b = RowBlock{Shape: want, IDs: make([]uint64, h.n), Slab: data[slabOff:]}
	r.off = idsOff
	for i := range b.IDs {
		b.IDs[i] = r.uvarint()
		b.idBytes += uvarintSize(b.IDs[i]) // not slabOff-idsOff: an id may come padded
	}
	if want.variable {
		b.Offs = make([]uint32, 1, h.n+1)
		rest := b.Slab
		for range b.IDs {
			for _, w := range b.Widths {
				_, rest = nextCell(rest, w)
			}
			b.Offs = append(b.Offs, uint32(len(b.Slab)-len(rest)))
		}
	}
	return nil
}

// Len returns the number of rows.
func (b *RowBlock) Len() int { return len(b.IDs) }

// appendHead appends the block's head and shape to buf.
func (b *RowBlock) appendHead(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b.IDs))<<1)
	if len(b.IDs) == 0 {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.Widths)))
	for _, w := range b.Widths {
		buf = binary.AppendUvarint(buf, uint64(w+1))
	}
	return buf
}

// EncodedSize returns len(b.AppendTo(nil)) without encoding ids or rows.
func (b *RowBlock) EncodedSize() int {
	var scratch [64]byte
	return len(b.appendHead(scratch[:0])) + b.idBytes + len(b.Slab)
}

// AppendTo appends the block's encoding to buf.
func (b *RowBlock) AppendTo(buf []byte) []byte {
	buf = b.appendHead(buf)
	for _, id := range b.IDs {
		buf = binary.AppendUvarint(buf, id)
	}
	return append(buf, b.Slab...)
}

// Clone returns a copy of b with ids, slab and offsets of its own, sharing
// only the (immutable) shape: mutating either block leaves the other as it
// was.
func (b *RowBlock) Clone() *RowBlock {
	c := *b
	c.IDs = slices.Clone(b.IDs)
	c.Slab = slices.Clone(b.Slab)
	c.Offs = slices.Clone(b.Offs)
	return &c
}

// Find returns the position of id among the (ascending) IDs and whether it
// is present; when absent, the position is the insertion point.
func (b *RowBlock) Find(id uint64) (int, bool) {
	i := sort.Search(len(b.IDs), func(i int) bool { return b.IDs[i] >= id })
	return i, i < len(b.IDs) && b.IDs[i] == id
}

// rowStart returns where row i starts in the slab (i may be Len()).
func (b *RowBlock) rowStart(i int) int {
	if b.Offs == nil {
		return i * b.stride
	}
	return int(b.Offs[i])
}

// Cell returns cell j of row i, aliasing the slab and capped to its bytes.
func (b *RowBlock) Cell(i, j int) []byte {
	if b.Offs == nil {
		lo := i*b.stride + b.colOff[j]
		return b.Slab[lo : lo+b.Widths[j] : lo+b.Widths[j]]
	}
	var cell []byte
	rest := b.Slab[b.Offs[i]:]
	for _, w := range b.Widths[:j+1] {
		cell, rest = nextCell(rest, w)
	}
	return cell
}

// RowSize returns the slab bytes a row of cells takes under the shape, or
// an error when the cells do not fit it.
func (s *Shape) RowSize(cells [][]byte) (int, error) {
	if len(cells) != len(s.Widths) {
		return 0, fmt.Errorf("%d cells, want %d", len(cells), len(s.Widths))
	}
	size := 0
	for k, c := range cells {
		if w := s.Widths[k]; w < 0 {
			size += uvarintSize(uint64(len(c)))
		} else if len(c) != w {
			return 0, fmt.Errorf("cell %d is %d bytes, want %d", k, len(c), w)
		}
		size += len(c)
	}
	return size, nil
}

// splice turns rows [i, j) of the slab into one row of cells — or into
// nothing when put is false — shifting what follows and keeping Offs in
// step. It fails, changing nothing, when cells do not fit the shape.
func (b *RowBlock) splice(i, j int, cells [][]byte, put bool) error {
	size := 0
	if put {
		var err error
		if size, err = b.RowSize(cells); err != nil {
			return err
		}
	}
	lo, hi, end := b.rowStart(i), b.rowStart(j), len(b.Slab)
	if delta := size - (hi - lo); delta != 0 {
		if delta > 0 {
			b.Slab = append(b.Slab, make([]byte, delta)...)
		}
		copy(b.Slab[lo+size:], b.Slab[hi:end])
		b.Slab = b.Slab[:end+delta]
		for k := j; k < len(b.Offs); k++ {
			b.Offs[k] = uint32(int(b.Offs[k]) + delta)
		}
	}
	at := b.Slab[lo:lo]
	for k, c := range cells {
		if b.Widths[k] < 0 {
			at = binary.AppendUvarint(at, uint64(len(c)))
		}
		at = append(at, c...)
	}
	if b.Offs != nil {
		var starts []uint32
		if put {
			starts = []uint32{uint32(lo)}
		}
		b.Offs = slices.Replace(b.Offs, i, j, starts...)
	}
	return nil
}

// Insert places a row at position i; the caller keeps the ids ascending.
func (b *RowBlock) Insert(i int, id uint64, cells [][]byte) error {
	if err := b.splice(i, i, cells, true); err != nil {
		return err
	}
	b.IDs = slices.Insert(b.IDs, i, id)
	b.idBytes += uvarintSize(id)
	return nil
}

// Replace overwrites row i's cells, in place when their size is unchanged.
func (b *RowBlock) Replace(i int, cells [][]byte) error {
	return b.splice(i, i+1, cells, true)
}

// Delete removes row i.
func (b *RowBlock) Delete(i int) {
	_ = b.splice(i, i+1, nil, false) // removing rows cannot fail
	b.idBytes -= uvarintSize(b.IDs[i])
	b.IDs = slices.Delete(b.IDs, i, i+1)
}

// Mid returns the row boundary nearest half the slab, leaving at least one
// row on either side: where a block of two or more rows is best Split.
func (b *RowBlock) Mid() int {
	if b.Offs == nil {
		return len(b.IDs) / 2
	}
	half := uint32(len(b.Slab) / 2)
	return 1 + sort.Search(len(b.IDs)-2, func(i int) bool { return b.Offs[i+1] >= half })
}

// Split cuts the block in two at row cut: b keeps rows [0, cut), the
// returned block holds the rest. Each half gets storage of its own size, so
// neither pins the other's bytes.
func (b *RowBlock) Split(cut int) *RowBlock {
	lo := b.rowStart(cut)
	right := &RowBlock{Shape: b.Shape, IDs: slices.Clone(b.IDs[cut:]), Slab: slices.Clone(b.Slab[lo:])}
	b.IDs, b.Slab = slices.Clone(b.IDs[:cut]), slices.Clone(b.Slab[:lo])
	for _, id := range right.IDs {
		right.idBytes += uvarintSize(id)
	}
	b.idBytes -= right.idBytes
	if b.Offs != nil {
		right.Offs = make([]uint32, 0, len(b.Offs)-cut)
		for _, o := range b.Offs[cut:] {
			right.Offs = append(right.Offs, o-uint32(lo))
		}
		b.Offs = slices.Clone(b.Offs[:cut+1])
	}
	return right
}
