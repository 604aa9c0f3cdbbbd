package proto

import (
	"bytes"
	mrand "math/rand"
	"reflect"
	"testing"
)

// readRowsPerCell is the decoder readRows replaced — one allocation per row
// plus one per cell — kept as the reference the arena decoder must match.
func readRowsPerCell(r *reader) []Row {
	n := r.length(maxListLen)
	if r.err != nil || n == 0 {
		return nil
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = readRow(r)
		if r.err != nil {
			return nil
		}
	}
	return rows
}

// randomChunk builds a row list of the shapes scans produce: projected
// 8-byte cells, whole rows with 24-byte shares, blobs, empty cells, rows
// without cells.
func randomChunk(rng *mrand.Rand) []Row {
	rows := make([]Row, rng.Intn(40))
	for i := range rows {
		rows[i].ID = rng.Uint64() >> uint(rng.Intn(64))
		n := rng.Intn(6)
		if n == 0 {
			continue
		}
		rows[i].Cells = make([][]byte, n)
		for j := range rows[i].Cells {
			size := []int{0, 8, 8, 24, rng.Intn(300)}[rng.Intn(5)]
			if size > 0 {
				rows[i].Cells[j] = make([]byte, size)
				rng.Read(rows[i].Cells[j])
			}
		}
	}
	return rows
}

func TestReadRowsMatchesPerCellDecoder(t *testing.T) {
	rng := mrand.New(mrand.NewSource(13))
	for iter := 0; iter < 300; iter++ {
		w := &writer{}
		writeRows(w, randomChunk(rng))
		w.bytes([]byte("trailer")) // what follows the rows in a RowsResponse

		ref := &reader{buf: w.buf}
		want := readRowsPerCell(ref)
		got := &reader{buf: w.buf}
		rows := readRows(got)
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("iter %d: arena decode differs:\n got %v\nwant %v", iter, rows, want)
		}
		if got.err != nil || got.off != ref.off {
			t.Fatalf("iter %d: arena decoder stopped at %d (err %v), reference at %d", iter, got.off, got.err, ref.off)
		}

		// Every truncation fails the way it always did, and decodes nothing.
		for cut := 0; cut < ref.off; cut += 1 + rng.Intn(7) {
			ref, got := &reader{buf: w.buf[:cut]}, &reader{buf: w.buf[:cut]}
			readRowsPerCell(ref)
			if rows := readRows(got); rows != nil || got.err == nil || got.err.Error() != ref.err.Error() {
				t.Fatalf("iter %d cut %d: arena decoder returned %d rows, err %v; reference err %v",
					iter, cut, len(rows), got.err, ref.err)
			}
		}
	}
}

// A hostile row count must fail on the missing bytes, not allocate for the
// rows it claims.
func TestReadRowsHostileCount(t *testing.T) {
	w := &writer{}
	w.uvarint(maxListLen)
	w.uvarint(1) // one row id, then nothing
	r := &reader{buf: w.buf}
	allocs := testing.AllocsPerRun(10, func() {
		r.off, r.err = 0, nil
		if rows := readRows(r); rows != nil || r.err != ErrTruncated {
			t.Fatalf("got %d rows, err %v", len(rows), r.err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a truncated %d-row claim cost %v allocations", maxListLen, allocs)
	}
}

// Cells share one arena, so each must be fenced to its own bytes: neither
// writing through one nor appending to one may reach a neighbour.
func TestReadRowsCellsDoNotAlias(t *testing.T) {
	src := []Row{
		{ID: 1, Cells: [][]byte{{1, 1, 1}, {2, 2}, {3}}},
		{ID: 2, Cells: [][]byte{{4, 4}, {5, 5, 5, 5}}},
	}
	w := &writer{}
	writeRows(w, src)
	buf := append([]byte(nil), w.buf...)
	rows := readRows(&reader{buf: buf})
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

// The point of the arena: a chunk costs three allocations, not one per row
// and one per cell.
func TestReadRowsAllocations(t *testing.T) {
	src := make([]Row, 500)
	for i := range src {
		src[i] = Row{ID: uint64(i), Cells: [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 8)}}
	}
	w := &writer{}
	writeRows(w, src)
	r := &reader{buf: w.buf}
	allocs := testing.AllocsPerRun(20, func() {
		r.off = 0
		if rows := readRows(r); len(rows) != len(src) {
			t.Fatalf("decoded %d rows", len(rows))
		}
	})
	if allocs > 3 {
		t.Fatalf("decoding a %d-row chunk cost %v allocations, want 3", len(src), allocs)
	}
}
