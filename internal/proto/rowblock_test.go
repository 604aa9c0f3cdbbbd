package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	mrand "math/rand"
	"reflect"
	"sort"
	"testing"
)

// decodeRowsReference is a second, deliberately plain reading of the block
// layout in rowblock.go — one allocation per row and per cell, no sizing
// pass, no limits — kept as what the arena decoder must agree with.
func decodeRowsReference(buf []byte) (rows []Row, rest []byte, err error) {
	uv := func() uint64 {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			err, buf = ErrTruncated, nil
			return 0
		}
		buf = buf[n:]
		return v
	}
	take := func(n uint64) []byte {
		if n > uint64(len(buf)) {
			err, buf = ErrTruncated, nil
			return nil
		}
		b := buf[:n]
		buf = buf[n:]
		return b
	}
	for more := true; more && err == nil; {
		head := uv()
		n := head >> 1
		if more = head&1 == 1; n == 0 {
			if more && err == nil {
				err = errors.New("empty block continues")
			}
			break
		}
		widths := make([]uint64, uv())
		for j := range widths {
			widths[j] = uv()
		}
		if n > uint64(len(buf)) {
			return nil, nil, ErrTruncated
		}
		blk := make([]Row, n)
		for i := range blk {
			blk[i].ID = uv()
		}
		for i := range blk {
			for _, w := range widths {
				if w == 0 {
					w = uv() + 1
				}
				blk[i].Cells = append(blk[i].Cells, append([]byte(nil), take(w-1)...))
			}
		}
		rows = append(rows, blk...)
	}
	if err != nil {
		return nil, nil, err
	}
	return rows, buf, nil
}

// randomChunk builds a row list of the shapes scans and loads produce:
// projected 8-byte cells, whole rows with 13/14-byte shares, blobs, empty
// cells, rows without cells — uniform (one block) or ragged (several).
func randomChunk(rng *mrand.Rand) []Row {
	rows := make([]Row, rng.Intn(40))
	ragged := rng.Intn(4) == 0
	nc := rng.Intn(6)
	sizes := make([]int, nc)
	for j := range sizes {
		sizes[j] = []int{0, 8, 13, 14, -1}[rng.Intn(5)]
	}
	for i := range rows {
		rows[i].ID = rng.Uint64() >> uint(rng.Intn(64))
		n := nc
		if ragged {
			n = rng.Intn(6)
		}
		if n == 0 {
			continue
		}
		rows[i].Cells = make([][]byte, n)
		for j := range rows[i].Cells {
			size := rng.Intn(300)
			if !ragged && sizes[j] >= 0 {
				size = sizes[j]
			}
			if size > 0 {
				rows[i].Cells[j] = make([]byte, size)
				rng.Read(rows[i].Cells[j])
			}
		}
	}
	return rows
}

// sameRows compares row lists treating nil and empty cells alike.
func sameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || len(a[i].Cells) != len(b[i].Cells) {
			return false
		}
		for j := range a[i].Cells {
			if !bytes.Equal(a[i].Cells[j], b[i].Cells[j]) {
				return false
			}
		}
	}
	return true
}

func TestRowsMatchReferenceDecoder(t *testing.T) {
	rng := mrand.New(mrand.NewSource(13))
	for iter := 0; iter < 300; iter++ {
		src := randomChunk(rng)
		w := &writer{}
		w.rows(src)
		end := len(w.buf)
		w.bytes([]byte("trailer")) // what follows the rows in a RowsResponse

		want, rest, err := decodeRowsReference(w.buf)
		if err != nil || !sameRows(want, src) || len(rest) != len(w.buf)-end {
			t.Fatalf("iter %d: reference decoder: %d rows, %d bytes left, err %v", iter, len(want), len(rest), err)
		}
		got := &reader{buf: w.buf}
		rows := got.rows()
		if got.err != nil || got.off != end || !sameRows(rows, src) {
			t.Fatalf("iter %d: arena decoder stopped at %d of %d (err %v):\n got %v\nwant %v", iter, got.off, end, got.err, rows, src)
		}
		// Every truncation fails in both decoders, and decodes nothing.
		for _, cut := range truncations(end, int64(iter)) {
			got := &reader{buf: w.buf[:cut]}
			_, _, refErr := decodeRowsReference(w.buf[:cut])
			if rows := got.rows(); rows != nil || got.err == nil || refErr == nil {
				t.Fatalf("iter %d cut %d of %d: arena decoder returned %d rows, err %v; reference err %v",
					iter, cut, end, len(rows), got.err, refErr)
			}
		}
	}
}

// truncations lists the cuts of an end-byte encoding that
// TestRowsMatchReferenceDecoder decodes: every one of them, or under the race
// detector a seeded sample — the first and last 16 and 32 between. Decoding
// every prefix is quadratic in the chunk, the test runs on one goroutine, and
// the detector slows it tenfold while it has nothing to detect.
func truncations(end int, seed int64) []int {
	const edge, middle = 16, 32
	if !raceEnabled || end <= 2*edge+middle {
		cuts := make([]int, end)
		for i := range cuts {
			cuts[i] = i
		}
		return cuts
	}
	rng := mrand.New(mrand.NewSource(seed))
	cuts := make([]int, 0, 2*edge+middle)
	for i := 0; i < edge; i++ {
		cuts = append(cuts, i, end-1-i)
	}
	for i := 0; i < middle; i++ {
		cuts = append(cuts, edge+rng.Intn(end-2*edge))
	}
	return cuts
}

// Hostile counts must fail on the missing bytes, not allocate for what they
// claim: rows, cells per row, rows × fixed width, a variable length.
func TestRowsHostileCounts(t *testing.T) {
	build := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	for name, buf := range map[string][]byte{
		"row count":      build(maxListLen<<1, 0, 1),
		"cells per row":  build(1<<1, maxRowCells, 9, 9),
		"rows × width":   append(build(200<<1, 1, maxCellLen+1), make([]byte, 300)...),
		"variable cell":  build(1<<1, 1, 0, 7, maxCellLen),
		"too many rows":  build((maxListLen+1)<<1, 0),
		"too wide a row": build(1<<1, 1, maxCellLen+2, 7),
	} {
		r := &reader{buf: buf}
		allocs := testing.AllocsPerRun(10, func() {
			r.off, r.err = 0, nil
			if rows := r.rows(); rows != nil || r.err == nil {
				t.Fatalf("%s: got %d rows, err %v", name, len(rows), r.err)
			}
		})
		// The two limit violations format an error; the truncations are free.
		if errors.Is(r.err, ErrTruncated) && allocs != 0 {
			t.Errorf("%s: a truncated claim cost %v allocations", name, allocs)
		}
		var b RowBlock
		if err := b.Decode(buf, nil); err == nil {
			t.Errorf("%s: decoded as a block of %d rows", name, b.Len())
		}
	}
}

// Cells share one arena, so each must be fenced to its own bytes: neither
// writing through one nor appending to one may reach a neighbour, and
// nothing may alias the frame buffer.
func TestRowsCellsDoNotAlias(t *testing.T) {
	src := []Row{
		{ID: 1, Cells: [][]byte{{1, 1, 1}, {2, 2}, {3}}},
		{ID: 2, Cells: [][]byte{{4, 4, 4}, {5, 5, 5, 5}, {6}}},
	}
	w := &writer{}
	w.rows(src)
	buf := append([]byte(nil), w.buf...)
	rows := (&reader{buf: buf}).rows()
	for i := range buf {
		buf[i] = 0xEE // the frame buffer is reused after decode
	}
	if !reflect.DeepEqual(rows, src) {
		t.Fatalf("decoded rows alias the frame buffer: %v", rows)
	}
	for i := range rows {
		for j := range rows[i].Cells {
			before := make([][][]byte, len(rows))
			for a := range rows {
				for _, c := range rows[a].Cells {
					before[a] = append(before[a], append([]byte(nil), c...))
				}
			}
			cell := rows[i].Cells[j]
			for k := range cell {
				cell[k] ^= 0xFF
			}
			_ = append(cell, 0xAA, 0xBB, 0xCC)
			_ = append(rows[i].Cells, []byte{0xDD}) // the next row's first cell sits right behind
			for a := range rows {
				for b, c := range rows[a].Cells {
					if a == i && b == j {
						continue
					}
					if !bytes.Equal(c, before[a][b]) {
						t.Fatalf("changing cell (%d,%d) changed cell (%d,%d): %v → %v", i, j, a, b, before[a][b], c)
					}
				}
			}
		}
	}
}

// loadBatch is the benchmark's load unit: 2 000 emp rows — id INT, name
// VARCHAR(8), salary INT, dept INT — each column an order-preserving share
// of its domain's width beside an 8-byte field share, 85 bytes a row.
func loadBatch() []Row {
	rows := make([]Row, 2000)
	for i := range rows {
		rows[i].ID = uint64(i + 1)
		for _, w := range []int{13, 14, 13, 13} {
			rows[i].Cells = append(rows[i].Cells, make([]byte, w), make([]byte, 8))
		}
	}
	return rows
}

// The point of the block: a message costs a fixed number of allocations,
// not some per row and per cell, on both sides of the wire.
func TestRowCodecAllocations(t *testing.T) {
	msg := &InsertRequest{Table: "emp", Rows: loadBatch()}
	var body []byte
	if allocs := testing.AllocsPerRun(20, func() { body = Encode(msg) }); allocs > 2 && !raceEnabled {
		t.Errorf("encoding a %d-row InsertRequest cost %v allocations, want at most 2 (writer, exact buffer)", len(msg.Rows), allocs)
	}
	if want := 1 + 1 + len("emp") + 2 + 1 + 8 + 2000*85; len(body) > want+2000*2 {
		t.Errorf("a %d-row InsertRequest is %d bytes, more than its shares, ids and one header (%d)", len(msg.Rows), len(body), want+2000*2)
	}
	r := &reader{buf: body[1+1+len("emp"):]}
	allocs := testing.AllocsPerRun(20, func() {
		r.off = 0
		if rows := r.rows(); len(rows) != len(msg.Rows) {
			t.Fatalf("decoded %d rows", len(rows))
		}
	})
	if allocs > 3 {
		t.Errorf("decoding a %d-row list cost %v allocations, want 3", len(msg.Rows), allocs)
	}
}

// Among rows of one shape, an encoded list grows by exactly what each row
// adds to a block that holds its cells at fixed widths: its id as a varint
// and its cell bytes.
func TestRowBytesExact(t *testing.T) {
	base := len(Encode(&RowsResponse{Rows: []Row{{ID: 5, Cells: [][]byte{make([]byte, 8), nil, make([]byte, 13)}}}}))
	acc := &RowsResponse{Rows: []Row{{ID: 5, Cells: [][]byte{make([]byte, 8), nil, make([]byte, 13)}}}}
	total := 0
	for _, id := range []uint64{0, 127, 128, 1 << 40} {
		r := Row{ID: id, Cells: [][]byte{make([]byte, 8), nil, make([]byte, 13)}}
		acc.Rows = append(acc.Rows, r)
		total += uvarintSize(r.ID) + 8 + 13
		if got := len(Encode(acc)) - base; got != total {
			t.Fatalf("after id %d: encoded delta %d, id and cell bytes %d", id, got, total)
		}
	}
}

// perRowSize is what the per-row format this codec replaced spent on a row
// list: a count, then per row an id, a cell count and a length per cell.
func perRowSize(rows []Row) int {
	n := uvarintSize(uint64(len(rows)))
	for _, r := range rows {
		n += uvarintSize(r.ID) + uvarintSize(uint64(len(r.Cells)))
		for _, c := range r.Cells {
			n += uvarintSize(uint64(len(c))) + len(c)
		}
	}
	return n
}

// A block must never cost more than the per-row list it replaced — one-row
// and zero-row statements must not pay for the rows of others — and must
// cost an id plus shares per row once there are rows to share a header.
func TestBlockNeverLargerThanPerRowList(t *testing.T) {
	rng := mrand.New(mrand.NewSource(29))
	for iter := 0; iter < 500; iter++ {
		rows := randomChunk(rng)
		if iter%3 == 0 && len(rows) > 1 {
			rows = rows[:1]
		}
		ragged := false
		for _, r := range rows {
			ragged = ragged || len(r.Cells) != len(rows[0].Cells)
		}
		w := &writer{}
		w.rows(rows)
		// A ragged list pays one header per run; a blob of 127 bytes alone in
		// its block states width+1 = 128 in two bytes where the list took one.
		if slack := 1; !ragged && len(w.buf) > perRowSize(rows)+slack {
			t.Fatalf("iter %d: %d rows encode in %d bytes, the per-row list took %d", iter, len(rows), len(w.buf), perRowSize(rows))
		}
	}
	emp := loadBatch()[:1]
	w := &writer{}
	w.rows(emp)
	if len(w.buf) != perRowSize(emp) {
		t.Errorf("a one-row emp block is %d bytes, the per-row list was %d", len(w.buf), perRowSize(emp))
	}
}

// model is the plain counterpart of a RowBlock in the mutation test.
type model []Row

func (m model) block(t *testing.T, s *Shape) *RowBlock {
	b := NewRowBlock(s)
	for i, r := range m {
		if err := b.Insert(i, r.ID, r.Cells); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// checkBlock compares a block with its model cell by cell and through its
// encoding: EncodedSize is exact, and decoding the encoding — against the
// shape, and self-described — gives the block back.
func checkBlock(t *testing.T, b *RowBlock, m model) {
	t.Helper()
	if b.Len() != len(m) {
		t.Fatalf("block has %d rows, model %d", b.Len(), len(m))
	}
	for i, r := range m {
		if b.IDs[i] != r.ID {
			t.Fatalf("row %d: id %d, model %d", i, b.IDs[i], r.ID)
		}
		for j, c := range r.Cells {
			if got := b.Cell(i, j); !bytes.Equal(got, c) || cap(got) != len(got) {
				t.Fatalf("row %d cell %d: %v (cap %d), model %v", i, j, got, cap(got), c)
			}
		}
	}
	enc := b.AppendTo(nil)
	if len(enc) != b.EncodedSize() {
		t.Fatalf("EncodedSize %d, encoding is %d bytes", b.EncodedSize(), len(enc))
	}
	for _, want := range []*Shape{b.Shape, nil} {
		var back RowBlock
		if err := back.Decode(enc, want); err != nil {
			t.Fatalf("decoding the block's own encoding: %v", err)
		}
		if !reflect.DeepEqual(back.IDs, b.IDs) && len(m) > 0 || !bytes.Equal(back.Slab, b.Slab) ||
			!reflect.DeepEqual(back.Offs, b.Offs) && len(m) > 0 || back.EncodedSize() != len(enc) {
			t.Fatalf("decoded block differs:\n got %+v\nwant %+v", back, *b)
		}
	}
}

// TestRowBlockMutations drives Insert/Replace/Delete/Split against a plain
// model over random shapes: 0–12 cells, share widths and blobs of 0–300
// bytes.
func TestRowBlockMutations(t *testing.T) {
	rng := mrand.New(mrand.NewSource(31))
	for iter := 0; iter < 60; iter++ {
		widths := make([]int, rng.Intn(13))
		for j := range widths {
			widths[j] = []int{13, 14, 8, Variable}[rng.Intn(4)]
		}
		shape := NewShape(widths)
		cells := func() [][]byte {
			out := make([][]byte, len(widths))
			for j, w := range widths {
				if w < 0 {
					w = rng.Intn(301)
				}
				out[j] = make([]byte, w)
				rng.Read(out[j])
			}
			return out
		}
		var m model
		b := NewRowBlock(shape)
		for step := 0; step < 120; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(m) == 0: // insert at the id's place
				id := rng.Uint64() >> uint(43+rng.Intn(3)*7)
				i := sort.Search(len(m), func(i int) bool { return m[i].ID >= id })
				if i < len(m) && m[i].ID == id {
					continue
				}
				r := Row{ID: id, Cells: cells()}
				if pos, found := b.Find(id); found || pos != i {
					t.Fatalf("Find(%d) = %d, %v; want %d, absent", id, pos, found, i)
				}
				if err := b.Insert(i, r.ID, r.Cells); err != nil {
					t.Fatal(err)
				}
				m = append(m[:i:i], append(model{r}, m[i:]...)...)
			case op < 7:
				i := rng.Intn(len(m))
				m[i].Cells = cells()
				if err := b.Replace(i, m[i].Cells); err != nil {
					t.Fatal(err)
				}
			case op < 9:
				i := rng.Intn(len(m))
				b.Delete(i)
				m = append(m[:i:i], m[i+1:]...)
			case len(m) >= 2:
				cut := 1 + rng.Intn(len(m)-1)
				if rng.Intn(2) == 0 {
					if cut = b.Mid(); cut < 1 || cut > len(m)-1 {
						t.Fatalf("Mid() = %d of %d rows", cut, len(m))
					}
				}
				right := b.Split(cut)
				checkBlock(t, right, m[cut:])
				m = m[:cut:cut]
			}
			checkBlock(t, b, m)
		}
		// A row that does not fit the shape is refused and changes nothing.
		if len(widths) > 0 {
			bad := cells()
			bad[0] = make([]byte, 5)
			if widths[0] < 0 {
				bad = bad[1:]
			}
			if err := b.Insert(0, 0, bad); err == nil {
				t.Fatalf("shape %v took a row of %d cells, first %d bytes", widths, len(bad), len(bad[0]))
			}
			checkBlock(t, b, m)
			checkBlock(t, m.block(t, shape), m)
		}
	}
}

// TestRowBlockClone: whatever is done to a clone — Insert, Replace (in place
// or resized), Delete, Split — the original keeps its rows and its
// encoding, for fixed and variable shapes, built up by inserts (slices with
// spare capacity) or decoded (a slab aliasing its payload).
func TestRowBlockClone(t *testing.T) {
	rng := mrand.New(mrand.NewSource(37))
	for _, widths := range [][]int{{13, 8}, {13, Variable, 8}} {
		cells := func() [][]byte {
			out := make([][]byte, len(widths))
			for j, w := range widths {
				if w < 0 {
					w = rng.Intn(40)
				}
				out[j] = make([]byte, w)
				rng.Read(out[j])
			}
			return out
		}
		var m model
		built := NewRowBlock(NewShape(widths))
		for i := 0; i < 20; i++ {
			r := Row{ID: uint64(10 * (i + 1)), Cells: cells()}
			if err := built.Insert(i, r.ID, r.Cells); err != nil {
				t.Fatal(err)
			}
			m = append(m, r)
		}
		decoded := new(RowBlock)
		if err := decoded.Decode(built.AppendTo(nil), built.Shape); err != nil {
			t.Fatal(err)
		}
		for name, orig := range map[string]*RowBlock{"built": built, "decoded": decoded} {
			want := orig.AppendTo(nil)
			c := orig.Clone()
			checkBlock(t, c, m)
			if err := c.Insert(3, 35, cells()); err != nil {
				t.Fatal(err)
			}
			if err := c.Replace(5, cells()); err != nil { // in place when fixed, resized when variable
				t.Fatal(err)
			}
			c.Delete(7)
			right := c.Split(c.Mid())
			if err := right.Replace(0, cells()); err != nil {
				t.Fatal(err)
			}
			if got := orig.AppendTo(nil); !bytes.Equal(got, want) {
				t.Fatalf("%v %s: mutating the clone changed the original's encoding", widths, name)
			}
			checkBlock(t, orig, m)
		}
	}
}

// FuzzRowBlock feeds arbitrary bytes to both readers of the block layout —
// the row-list decoder of messages and the aliasing decoder of pages. Neither
// may panic, and whatever decodes must survive re-encoding: decoding the
// re-encoding gives the same rows, at the size the encoder predicted.
func FuzzRowBlock(f *testing.F) {
	rng := mrand.New(mrand.NewSource(7))
	seeds := [][]Row{
		loadBatch()[:3], // all fixed
		{{ID: 1, Cells: [][]byte{make([]byte, 13), []byte("blob")}}, {ID: 2, Cells: [][]byte{make([]byte, 13), []byte("longer blob")}}}, // mixed
		{{ID: 1, Cells: [][]byte{nil, nil}}, {ID: 300, Cells: [][]byte{nil, {1}}}},                                                      // empty cells
		{{ID: 7}, {ID: 1 << 50}}, // zero cells
		nil,                      // zero rows
		{{ID: 1, Cells: [][]byte{{1}}}, {ID: 2}, {ID: 3, Cells: [][]byte{{3}, {3, 3}}}}, // ragged
		randomChunk(rng), randomChunk(rng), randomChunk(rng),
	}
	for _, rows := range seeds {
		w := &writer{}
		w.rows(rows)
		for cut := 0; cut <= len(w.buf); cut++ {
			f.Add(w.buf[:cut]) // truncated at every byte
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &reader{buf: data}
		if rows := r.rows(); r.err == nil {
			w := &writer{}
			w.rows(rows)
			again := &reader{buf: w.buf}
			if back := again.rows(); again.err != nil || again.off != len(w.buf) || !sameRows(back, rows) {
				t.Fatalf("rows do not survive re-encoding (err %v):\n got %v\nwant %v", again.err, back, rows)
			}
		}
		var b RowBlock
		if err := b.Decode(data, nil); err != nil {
			return
		}
		rows := (&reader{buf: data}).rows()
		if len(rows) != b.Len() {
			t.Fatalf("the page decoder sees %d rows, the list decoder %d", b.Len(), len(rows))
		}
		for i, row := range rows {
			for j, c := range row.Cells {
				if row.ID != b.IDs[i] || !bytes.Equal(b.Cell(i, j), c) {
					t.Fatalf("row %d cell %d: page decoder %d %v, list decoder %d %v", i, j, b.IDs[i], b.Cell(i, j), row.ID, c)
				}
			}
		}
		enc := b.AppendTo(nil)
		var back RowBlock
		if err := back.Decode(enc, nil); err != nil || len(enc) != b.EncodedSize() ||
			!reflect.DeepEqual(back.IDs, b.IDs) || !bytes.Equal(back.Slab, b.Slab) {
			t.Fatalf("block does not survive re-encoding (err %v, %d bytes, EncodedSize %d)", err, len(enc), b.EncodedSize())
		}
	})
}
