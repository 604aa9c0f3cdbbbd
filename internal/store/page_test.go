package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	mrand "math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sssdb/internal/numenc"
	"sssdb/internal/opp"
	"sssdb/internal/proto"
)

// randomSpec draws a table of 0–12 further columns after one indexed OPP
// column: order-preserving shares of every width a scheme can have, field
// shares and plaintext blobs.
func randomSpec(rng *mrand.Rand) proto.TableSpec {
	spec := proto.TableSpec{Name: "t", Columns: []proto.ColumnSpec{{Name: "k", Kind: proto.KindOPP, Indexed: true, Width: oppCellSize}}}
	for c := rng.Intn(13); c > 0; c-- {
		col := proto.ColumnSpec{Name: fmt.Sprintf("c%d", c), Kind: []proto.ColKind{proto.KindOPP, proto.KindField, proto.KindPlain}[rng.Intn(3)]}
		if col.Kind == proto.KindOPP {
			col.Width = uint8(1 + rng.Intn(24))
		}
		spec.Columns = append(spec.Columns, col)
	}
	return spec
}

// randomRow fills a row of spec: shares at their widths, blobs of 0–300 bytes.
func randomRow(rng *mrand.Rand, spec *proto.TableSpec, id uint64) proto.Row {
	r := proto.Row{ID: id, Cells: make([][]byte, len(spec.Columns))}
	for j, w := range shapeOf(spec).Widths {
		if w < 0 {
			w = rng.Intn(301)
		}
		r.Cells[j] = make([]byte, w)
		rng.Read(r.Cells[j])
	}
	return r
}

// checkPageAccounting asserts, for every page of every table, what the cache
// and the manifest rely on: the directory entry's bytes are exactly the
// page's encoded size, its span and count are the page's, the encoding
// decodes back to the same page, and the cache's total is the sum.
func checkPageAccounting(t *testing.T, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var resident int64
	for _, tb := range s.tables {
		rows := 0
		for _, pm := range tb.heap.pages {
			p, err := s.cache.acquire(pm)
			if err != nil {
				t.Fatal(err)
			}
			enc := p.AppendTo(nil)
			if pm.bytes != len(enc) || pm.count != p.Len() || pm.firstID != p.IDs[0] || pm.lastID != p.IDs[p.Len()-1] {
				t.Fatalf("page %d: directory says %d rows [%d, %d] in %d bytes; page holds %d rows [%d, %d] in %d bytes",
					pm.id, pm.count, pm.firstID, pm.lastID, pm.bytes, p.Len(), p.IDs[0], p.IDs[p.Len()-1], len(enc))
			}
			back, err := decodePage(enc, tb.heap.shape)
			if err != nil || !reflect.DeepEqual(back.IDs, p.IDs) || !bytes.Equal(back.Slab, p.Slab) {
				t.Fatalf("page %d does not survive its own encoding: %v", pm.id, err)
			}
			rows += p.Len()
		}
		if rows != tb.heap.count {
			t.Fatalf("table %q: pages hold %d rows, heap counts %d", tb.spec.Name, rows, tb.heap.count)
		}
	}
	s.cache.mu.Lock()
	for e := s.cache.head; e != nil; e = e.next {
		resident += int64(e.pm.bytes)
	}
	used := s.cache.used
	s.cache.mu.Unlock()
	if used != resident {
		t.Fatalf("cache charges %d bytes, its resident pages encode to %d", used, resident)
	}
}

// TestPageAccountingExact drives random tables through insert, update,
// delete, split, eviction and reload and checks after every phase that the
// bytes the directory and the cache account are the bytes writePage writes.
func TestPageAccountingExact(t *testing.T) {
	rng := mrand.New(mrand.NewSource(41))
	for iter := 0; iter < 12; iter++ {
		spec := randomSpec(rng)
		s, err := OpenOptions(t.TempDir(), Options{PageBytes: 2 << 10, CacheBytes: 24 << 10, CheckpointInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CreateTable(spec); err != nil {
			t.Fatal(err)
		}
		live := map[uint64]bool{}
		for step := 0; step < 400; step++ {
			id := uint64(rng.Intn(600)) << uint(7*rng.Intn(3))
			switch {
			case !live[id]:
				err = s.Insert("t", []proto.Row{randomRow(rng, &spec, id)})
				live[id] = true
			case rng.Intn(2) == 0:
				err = s.Update("t", []proto.Row{randomRow(rng, &spec, id)})
			default:
				_, err = s.Delete("t", []uint64{id})
				delete(live, id)
			}
			if err != nil {
				t.Fatalf("spec %v step %d: %v", spec.Columns, step, err)
			}
			if step%50 == 49 {
				checkPageAccounting(t, s)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		checkPageAccounting(t, s)
		if got, err := s.RowCount("t"); err != nil || got != len(live) {
			t.Fatalf("%d rows, want %d (%v)", got, len(live), err)
		}
		s.Close()
	}
}

// empSpec is the provider-side shape of the benchmark's emp table at the
// client's defaults: id INT, name VARCHAR(8), salary INT, dept INT, each an
// indexed order-preserving share (13 bytes for the 40-bit INT domain, 14 for
// VARCHAR(8)) beside its 8-byte field share.
func empSpec() proto.TableSpec {
	spec := proto.TableSpec{Name: "emp"}
	for _, c := range []proto.ColumnSpec{{Name: "id", Width: 13}, {Name: "name", Width: 14}, {Name: "salary", Width: 13}, {Name: "dept", Width: 13}} {
		spec.Columns = append(spec.Columns,
			proto.ColumnSpec{Name: c.Name + "#o", Kind: proto.KindOPP, Indexed: true, Width: c.Width},
			proto.ColumnSpec{Name: c.Name + "#f", Kind: proto.KindField})
	}
	return spec
}

// empShareBytes is the share bytes of one empSpec row: 13+14+13+13 + 4×8.
const empShareBytes = 85

// TestResidentBytesAreHeapBytes holds the cache's accounting against the
// heap: faulting N pages in must retain no more than 1.25× what
// Stats().ResidentBytes charges for them (and the ids, decoded to 8 bytes
// each, are the only part of that which is not the payload itself).
func TestResidentBytesAreHeapBytes(t *testing.T) {
	dir := t.TempDir()
	opts := Options{CacheBytes: -1, CheckpointInterval: -1}
	s, err := OpenOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	spec := empSpec()
	if err := s.CreateTable(spec); err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(43))
	const n = 40000
	for id := uint64(1); id <= n; id += 2000 {
		batch := make([]proto.Row, 2000)
		for i := range batch {
			batch[i] = randomRow(rng, &spec, id+uint64(i))
		}
		if err := s.Insert("emp", batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	if s, err = OpenOptions(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s.mu.RLock()
	for _, pm := range s.tables["emp"].heap.pages {
		if _, err := s.cache.acquire(pm); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.RUnlock()
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := s.Stats()
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if st.ResidentPages != st.Pages || st.ResidentBytes < n*(empShareBytes+2) {
		t.Fatalf("%d of %d pages resident, %d bytes charged", st.ResidentPages, st.Pages, st.ResidentBytes)
	}
	if float64(held) > 1.25*float64(st.ResidentBytes) {
		t.Errorf("faulting %d pages in retained %d heap bytes, the cache charges %d (×%.2f, want ≤ 1.25)",
			st.Pages, held, st.ResidentBytes, float64(held)/float64(st.ResidentBytes))
	}
	t.Logf("%d pages: %d heap bytes held for %d charged (×%.3f), %.1f B/row", st.Pages, held, st.ResidentBytes,
		float64(held)/float64(st.ResidentBytes), float64(st.ResidentBytes)/n)
}

// TestIndexEntryHeapBytes holds what an index entry costs in live heap: a
// table of indexed order-preserving columns, loaded with and without
// Indexed and then read through its first column's index (which builds the
// indexes), differs by at most so many bytes per entry after two GCs. Random
// 13-byte cells (20 000 rows, two columns) share little but their high id
// bytes, and leave at most 24. The benchmark fixture's real shares (100 000
// rows of emp, see fixtureCells) share more — a leaf's entries start alike
// and dept has 16 values — and leave at most 16.
func TestIndexEntryHeapBytes(t *testing.T) {
	rng := mrand.New(mrand.NewSource(53))
	random := make([][][]byte, 20000)
	for i := range random {
		random[i] = [][]byte{make([]byte, 13), make([]byte, 13)}
		rng.Read(random[i][0])
		rng.Read(random[i][1])
	}
	for _, tc := range []struct {
		name  string
		rows  [][][]byte
		bound float64
	}{
		{"random cells", random, 24},
		{"fixture shares", fixtureCells(t, 100_000), 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, cols := len(tc.rows), len(tc.rows[0])
			liveAfterLoad := func(indexed bool) int64 {
				spec := proto.TableSpec{Name: "t"}
				for ci, cell := range tc.rows[0] {
					spec.Columns = append(spec.Columns, proto.ColumnSpec{
						Name: fmt.Sprintf("c%d#o", ci), Kind: proto.KindOPP, Indexed: indexed, Width: uint8(len(cell))})
				}
				var before, after runtime.MemStats
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&before)
				s := memStore(t)
				if err := s.CreateTable(spec); err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < n; lo += 2000 {
					batch := make([]proto.Row, min(2000, n-lo))
					for i := range batch {
						batch[i] = proto.Row{ID: uint64(lo + i), Cells: tc.rows[lo+i]}
					}
					if err := s.Insert("t", batch); err != nil {
						t.Fatal(err)
					}
				}
				first := tc.rows[0][0]
				if _, err := s.Scan("t", &proto.Filter{Col: "c0#o", Op: proto.FilterEq, Lo: first}, NoColumns, 0, false); err != nil {
					t.Fatal(err)
				}
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(s)
				return int64(after.HeapAlloc) - int64(before.HeapAlloc)
			}
			plain, indexed := liveAfterLoad(false), liveAfterLoad(true)
			perEntry := float64(indexed-plain) / float64(cols*n)
			t.Logf("%d rows × %d columns: %d live bytes without indexes, %d with: %.1f B per index entry",
				n, cols, plain, indexed, perEntry)
			if perEntry > tc.bound {
				t.Errorf("an index entry costs %.1f bytes of live heap, want ≤ %.0f", perEntry, tc.bound)
			}
		})
	}
}

// fixtureCells returns the order-preserving cells one provider holds for
// rows 0..n-1 of the benchmark's emp fixture (seed 1) under the client's
// defaults: id dense from 0, an 8-letter name, salary uniform in
// [0, 100 000) and one of 16 depts, each value shared at the first evaluation
// point by its domain's degree-3 scheme — INT 40 bits (13-byte cells),
// VARCHAR(8) over the printable alphabet (14-byte cells).
func fixtureCells(t testing.TB, n int) [][][]byte {
	t.Helper()
	ints, err := numenc.NewSignedCodec(40)
	if err != nil {
		t.Fatal(err)
	}
	names, err := numenc.NewStringCodec(numenc.PrintableAlphabet, 8)
	if err != nil {
		t.Fatal(err)
	}
	intSch, err := opp.NewScheme(opp.Params{Degree: 3, DomainBits: 40, N: 3}, []byte("int domain key"))
	if err != nil {
		t.Fatal(err)
	}
	nameSch, err := opp.NewScheme(opp.Params{Degree: 3, DomainBits: names.Bits(), N: 3}, []byte("name domain key"))
	if err != nil {
		t.Fatal(err)
	}
	must := func(u uint64, err error) uint64 {
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	share := func(sch *opp.Scheme, u uint64) []byte {
		sh, err := sch.ShareAt(u, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sch.AppendShare(nil, sh)
	}
	mix := func(u uint64) uint64 { // splitmix64's finalizer, as the fixture derives rows
		u += 0x9e3779b97f4a7c15
		u = (u ^ (u >> 30)) * 0xbf58476d1ce4e5b9
		u = (u ^ (u >> 27)) * 0x94d049bb133111eb
		return u ^ (u >> 31)
	}
	rows := make([][][]byte, n)
	for id := range rows {
		h := mix(1<<32 ^ uint64(id))
		var name [8]byte
		for i, g := 0, mix(h); i < len(name); i, g = i+1, g/26 {
			name[i] = byte('A' + g%26)
		}
		rows[id] = [][]byte{
			share(intSch, must(ints.Encode(int64(id)))),
			share(nameSch, must(names.Encode(string(name[:])))),
			share(intSch, must(ints.Encode(int64(h%100_000)))),
			share(intSch, must(ints.Encode(int64(h>>32%16)))),
		}
	}
	return rows
}

// TestStoredRowBytes guards the stored-footprint figure the repository
// benchmark reports (stored_bytes_per_user_byte): 10 000 rows of the emp
// shape, loaded and checkpointed, must cost at most 90 bytes each on disk —
// everything in the directory: page files, manifest and WAL. A row is its 85
// share bytes plus a 1–2 byte id; the rest is per-page and per-file framing.
func TestStoredRowBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	spec := empSpec()
	if err := s.CreateTable(spec); err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(47))
	const n = 10000
	for id := uint64(1); id <= n; id += 2000 {
		batch := make([]proto.Row, 2000)
		for i := range batch {
			batch[i] = randomRow(rng, &spec, id+uint64(i))
		}
		if err := s.Insert("emp", batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var total int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		total += info.Size()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if perRow := float64(total) / n; perRow > 90 || perRow < empShareBytes {
		t.Errorf("a stored emp row costs %.1f bytes, want %d (its shares) to 90", perRow, empShareBytes)
	} else {
		t.Logf("%d rows in %d bytes: %.1f B/row", n, total, perRow)
	}
}

// TestPageAllocations pins what the slab form is for: decoding a full page
// and assembling a full cursor batch cost a fixed handful of allocations,
// not some per row and per cell.
func TestPageAllocations(t *testing.T) {
	s := memStore(t)
	spec := proto.TableSpec{Name: "emp", Columns: []proto.ColumnSpec{
		{Name: "salary#o", Kind: proto.KindOPP, Indexed: true, Width: oppCellSize}, {Name: "salary#f", Kind: proto.KindField},
		{Name: "dept#o", Kind: proto.KindOPP, Width: oppCellSize}, {Name: "dept#f", Kind: proto.KindField},
	}}
	if err := s.CreateTable(spec); err != nil {
		t.Fatal(err)
	}
	rows := make([]proto.Row, 4000)
	for i := range rows {
		id := uint64(i + 1)
		rows[i] = proto.Row{ID: id, Cells: [][]byte{oppCell(id), fieldCell(id), oppCell(id % 16), fieldCell(id % 16)}}
	}
	if err := s.Insert("emp", rows); err != nil {
		t.Fatal(err)
	}
	tb := s.tables["emp"]
	payload := tb.heap.pages[0].res.AppendTo(nil)
	if rowsPerPage := tb.heap.pages[0].count; rowsPerPage < 400 {
		t.Fatalf("first page holds %d rows; the test wants a full one", rowsPerPage)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodePage(payload, tb.heap.shape); err != nil {
			t.Fatal(err)
		}
	}); allocs > 3 {
		t.Errorf("decoding a page of %d rows cost %v allocations, want at most 3 (page, ids, …)", tb.heap.pages[0].count, allocs)
	}

	for name, f := range map[string]*proto.Filter{
		"heap order":  nil,
		"index order": {Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(0), Hi: oppCell(1 << 40)},
	} {
		cur, err := s.OpenCursor("emp", f, []string{"salary#f", "dept#f"}, 0, 8<<10)
		if err != nil {
			t.Fatal(err)
		}
		if b, err := cur.Next(); err != nil || len(b.Rows) < 300 { // grows the cursor's scratch space
			t.Fatalf("%s: first batch: %v", name, err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if b, err := cur.Next(); err != nil || len(b.Rows) < 300 {
				t.Fatalf("%s: batch of %d rows, err %v", name, len(b.Rows), err)
			}
		})
		if allocs > 4 {
			t.Errorf("%s: a cursor batch cost %v allocations, want at most 4 (response, rows, cell index, arena)", name, allocs)
		}
	}
}

// TestRaggedRowsRejected: a row list whose rows differ in cell count still
// travels through the one codec (as consecutive blocks), so it reaches the
// store and is refused there by name, directly and as a transaction op.
func TestRaggedRowsRejected(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	ragged := []proto.Row{row(1, 1), {ID: 2, Cells: [][]byte{oppCell(2)}}, row(3, 3)}
	msg, err := proto.Decode(proto.Encode(&proto.InsertRequest{Table: "employees", Rows: ragged}))
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(*proto.InsertRequest).Rows
	if len(got) != 3 || len(got[0].Cells) != 3 || len(got[1].Cells) != 1 || !bytes.Equal(got[2].Cells[2], ragged[2].Cells[2]) {
		t.Fatalf("ragged list did not survive the codec: %v", got)
	}
	if err := s.Insert("employees", got); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("ragged insert: %v", err)
	}
	if err := s.PrepareTx(1, [][]byte{proto.Encode(&proto.InsertRequest{Table: "employees", Rows: ragged})}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("ragged transactional insert: %v", err)
	}
	if n, _ := s.RowCount("employees"); n != 0 {
		t.Fatalf("%d rows applied from rejected batches", n)
	}
}

// FuzzDecodePage feeds arbitrary bytes to the page decoder, against the test
// table's shape and self-described. It must never panic; whatever decodes
// re-encodes to a payload that decodes to the same page, and survives a
// mutation of every kind with its accounting exact.
func FuzzDecodePage(f *testing.F) {
	spec := testSpec()
	shape := shapeOf(&spec)
	seed := func(rows ...proto.Row) {
		p := proto.NewRowBlock(shape)
		for i, r := range rows {
			if err := p.Insert(i, r.ID, r.Cells); err != nil {
				f.Fatal(err)
			}
		}
		enc := p.AppendTo(nil)
		for cut := 0; cut <= len(enc); cut++ {
			f.Add(enc[:cut]) // truncated at every byte
		}
	}
	seed(row(1, 10), row(2, 20), row(300, 30))                             // mixed fixed/variable
	seed(proto.Row{ID: 9, Cells: [][]byte{oppCell(1), fieldCell(1), nil}}) // empty cell
	seed()                                                                 // zero rows
	for _, raw := range [][]byte{
		proto.Encode(&proto.RowsResponse{Rows: []proto.Row{{ID: 7}, {ID: 8}}})[2:],                           // zero cells
		proto.Encode(&proto.RowsResponse{Rows: []proto.Row{{ID: 1, Cells: [][]byte{fieldCell(1)}}}})[2:],     // all fixed
		proto.Encode(&proto.RowsResponse{Rows: []proto.Row{{ID: 1}, {ID: 2, Cells: [][]byte{{1}}}}})[2:],     // ragged: two blocks
		proto.Encode(&proto.RowsResponse{Rows: []proto.Row{{ID: 1, Cells: [][]byte{{1}, {2, 2}, {3}}}}})[2:], // another shape
	} {
		f.Add(raw[:len(raw)-1]) // rows sit between the header and the empty proof
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, want := range []*proto.Shape{shape, nil} {
			p, err := decodePage(append([]byte(nil), data...), want)
			if err != nil {
				if !errors.Is(err, ErrBadRequest) {
					t.Fatalf("decode error is not ErrBadRequest: %v", err)
				}
				continue
			}
			check := func(stage string) {
				enc := p.AppendTo(nil)
				back, err := decodePage(enc, p.Shape)
				if err != nil || len(enc) != p.EncodedSize() || !reflect.DeepEqual(back.IDs, p.IDs) || !bytes.Equal(back.Slab, p.Slab) {
					t.Fatalf("%s: page does not survive re-encoding (err %v, %d bytes, EncodedSize %d)", stage, err, len(enc), p.EncodedSize())
				}
			}
			check("decoded")
			if want == nil || p.Len() == 0 {
				continue
			}
			if err := p.Replace(0, row(0, 5).Cells); err != nil {
				t.Fatal(err)
			}
			check("replaced")
			if err := p.Insert(p.Len(), p.IDs[p.Len()-1]+1, row(0, 6).Cells); err != nil {
				t.Fatal(err)
			}
			check("inserted")
			right := p.Split(p.Len() / 2)
			check("split, left")
			p.Delete(0)
			check("deleted")
			p = right
			check("split, right")
		}
	})
}

// TestOpenRefusesOldFormatDirectory opens directories written by the commits
// before each format change: testdata/format-v1 (per-row pages and WAL
// records, manifest version 1) and testdata/format-v2 (share-row blocks of
// 24-byte shares under specs without widths, manifest version 2). All must be
// refused with an error naming the format — a WAL-only one at its first
// record, a checkpointed one at its manifest — never half-decoded.
func TestOpenRefusesOldFormatDirectory(t *testing.T) {
	for version := 1; version <= 2; version++ {
		for name, check := range map[string]func(error) bool{
			"store-wal": func(err error) bool { return errors.Is(err, proto.ErrOldFormat) },
			"store-checkpointed": func(err error) bool {
				return errors.Is(err, ErrBadRequest) && strings.Contains(err.Error(), fmt.Sprintf("manifest is format version %d", version))
			},
		} {
			dir := t.TempDir()
			copyDir(t, filepath.Join("testdata", fmt.Sprintf("format-v%d", version), name), dir)
			s, err := OpenOptions(dir, Options{CheckpointInterval: -1})
			if err == nil {
				s.Close()
				t.Fatalf("%s: a format %d directory opened", name, version)
			}
			if !check(err) {
				t.Errorf("%s: format %d refused with %v, which does not name the format", name, version, err)
			}
		}
	}
}
