package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"sssdb/internal/proto"
)

// drainCursor collects every batch into one response, recording how many
// batches the cursor produced.
func drainCursor(t *testing.T, cur *ScanCursor) (*proto.RowsResponse, int) {
	t.Helper()
	out := &proto.RowsResponse{Columns: cur.Columns()}
	batches := 0
	for {
		b, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out, batches
		}
		if len(b.Rows) == 0 {
			t.Fatal("cursor emitted an empty batch")
		}
		batches++
		out.Rows = append(out.Rows, b.Rows...)
	}
}

func sameRows(a, b *proto.RowsResponse) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if a.Rows[i].ID != b.Rows[i].ID || len(a.Rows[i].Cells) != len(b.Rows[i].Cells) {
			return false
		}
		for j := range a.Rows[i].Cells {
			if !bytes.Equal(a.Rows[i].Cells[j], b.Rows[i].Cells[j]) {
				return false
			}
		}
	}
	return true
}

// TestCursorMatchesScan drives every filter shape through both Scan and
// OpenCursor with a batch size small enough to force many batches, and
// requires identical rows in identical order.
func TestCursorMatchesScan(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	var rows []proto.Row
	for i := uint64(1); i <= 500; i++ {
		rows = append(rows, row(i, i%97))
	}
	if err := s.Insert("employees", rows); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		filter *proto.Filter
		proj   []string
		limit  uint64
	}{
		{"full", nil, nil, 0},
		{"full-limit", nil, nil, 7},
		{"indexed-range", &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(10), Hi: oppCell(40)}, nil, 0},
		{"indexed-range-limit", &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(10), Hi: oppCell(40)}, nil, 5},
		{"indexed-eq", &proto.Filter{Col: "salary#o", Op: proto.FilterEq, Lo: oppCell(13)}, nil, 0},
		{"unindexed", &proto.Filter{Col: "note", Op: proto.FilterRange, Lo: []byte("n1"), Hi: []byte("n2")}, nil, 0},
		{"projected", &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(0), Hi: oppCell(96)}, []string{"salary#f"}, 0},
		{"empty", &proto.Filter{Col: "salary#o", Op: proto.FilterEq, Lo: oppCell(999)}, nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := s.Scan("employees", tc.filter, tc.proj, tc.limit, false)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := s.OpenCursor("employees", tc.filter, tc.proj, tc.limit, 256)
			if err != nil {
				t.Fatal(err)
			}
			got, batches := drainCursor(t, cur)
			if !sameRows(want, got) {
				t.Fatalf("cursor rows differ from Scan: scan=%d cursor=%d rows", len(want.Rows), len(got.Rows))
			}
			if len(want.Rows) > 10 && batches < 2 {
				t.Fatalf("batchBytes=256 over %d rows produced %d batch(es); want several", len(want.Rows), batches)
			}
			// A drained cursor keeps returning (nil, nil).
			if b, err := cur.Next(); err != nil || b != nil {
				t.Fatalf("Next after exhaustion = %v, %v", b, err)
			}
		})
	}
}

func TestCursorErrors(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	if _, err := s.OpenCursor("nope", nil, nil, 0, 0); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("missing table: %v", err)
	}
	if _, err := s.OpenCursor("employees", nil, []string{"ghost"}, 0, 0); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("bad projection: %v", err)
	}
	if _, err := s.OpenCursor("employees", &proto.Filter{Col: "salary#f", Op: proto.FilterEq, Lo: fieldCell(1)}, nil, 0, 0); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("field filter: %v", err)
	}
	if _, err := s.OpenCursor("employees", &proto.Filter{Col: "ghost", Op: proto.FilterEq, Lo: oppCell(1)}, nil, 0, 0); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("bad filter column: %v", err)
	}
	// A table dropped mid-scan fails the next batch.
	if err := s.Insert("employees", []proto.Row{row(1, 1), row(2, 2)}); err != nil {
		t.Fatal(err)
	}
	cur, err := s.OpenCursor("employees", nil, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("employees"); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("Next after drop: %v", err)
	}
	if b, err := cur.Next(); err != nil || b != nil {
		t.Fatalf("cursor not sticky after error: %v, %v", b, err)
	}
	// A table dropped and made again mid-scan — here with one short plain
	// column, whose rows the scan's projection would read past — is another
	// table: the next batch fails, on a heap walk and an index walk alike.
	for _, f := range []*proto.Filter{nil, {Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(0), Hi: oppCell(99)}} {
		mustCreate(t, s)
		if err := s.Insert("employees", []proto.Row{row(1, 1), row(2, 2)}); err != nil {
			t.Fatal(err)
		}
		cur, err := s.OpenCursor("employees", f, nil, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if b, err := cur.Next(); err != nil || len(b.Rows) != 1 {
			t.Fatalf("first batch: %v, %v", b, err)
		}
		if err := s.DropTable("employees"); err != nil {
			t.Fatal(err)
		}
		short := proto.TableSpec{Name: "employees", Columns: []proto.ColumnSpec{{Name: "salary#o", Kind: proto.KindPlain}}}
		if err := s.CreateTable(short); err != nil {
			t.Fatal(err)
		}
		if err := s.Insert("employees", []proto.Row{{ID: 3, Cells: [][]byte{[]byte("x")}}}); err != nil {
			t.Fatal(err)
		}
		if b, err := cur.Next(); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("filter %v: Next after the table was made again: %v, %v; want ErrBadRequest", f, b, err)
		}
		if err := s.DropTable("employees"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCursorSkipsConcurrentDeletes checks the indexed cursor tolerates rows
// vanishing between batches: deleted rows ahead of the cursor simply do not
// appear.
func TestCursorSkipsConcurrentDeletes(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	var rows []proto.Row
	for i := uint64(1); i <= 100; i++ {
		rows = append(rows, row(i, i))
	}
	if err := s.Insert("employees", rows); err != nil {
		t.Fatal(err)
	}
	cur, err := s.OpenCursor("employees",
		&proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(0), Hi: oppCell(200)}, nil, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cur.Next()
	if err != nil || len(first.Rows) == 0 {
		t.Fatalf("first batch: %v, %v", first, err)
	}
	// Delete everything beyond salary 50 between batches.
	var doomed []uint64
	for i := uint64(51); i <= 100; i++ {
		doomed = append(doomed, i)
	}
	if _, err := s.Delete("employees", doomed); err != nil {
		t.Fatal(err)
	}
	got := len(first.Rows)
	for {
		b, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for _, r := range b.Rows {
			if r.ID > 50 {
				t.Fatalf("row %d surfaced after its delete", r.ID)
			}
		}
		got += len(b.Rows)
	}
	if got < len(first.Rows) || got > 100 {
		t.Fatalf("row count %d out of range", got)
	}
}

// TestCursorResumesAcrossShiftedSlab checks an indexed cursor's resume point
// after writes between batches shift the keys of the very leaf it stopped in:
// the row at the boundary and its neighbours are deleted, new keys land on
// both sides of it, and the rest of the scan is exactly the rows now past the
// boundary, in index order.
func TestCursorResumesAcrossShiftedSlab(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	var rows []proto.Row
	for i := uint64(1); i <= 40; i++ { // one leaf: salaries 2, 4, …, 80
		rows = append(rows, row(i, 2*i))
	}
	if err := s.Insert("employees", rows); err != nil {
		t.Fatal(err)
	}
	f := &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(0), Hi: oppCell(1000)}
	cur, err := s.OpenCursor("employees", f, nil, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cur.Next()
	if err != nil || first == nil || len(first.Rows) < 3 || len(first.Rows) >= 40 {
		t.Fatalf("first batch: %v, %v", first, err)
	}
	last := first.Rows[len(first.Rows)-1].ID // salary 2·last
	if _, err := s.Delete("employees", []uint64{last - 1, last, last + 1}); err != nil {
		t.Fatal(err)
	}
	added := []proto.Row{row(100, 2*last-1), row(101, 2*last), row(102, 2*last+1), row(103, 1)}
	if err := s.Insert("employees", added); err != nil {
		t.Fatal(err)
	}
	rest, _ := drainCursor(t, cur)
	var got []uint64
	for _, r := range rest.Rows {
		got = append(got, r.ID)
	}
	// Past the boundary (salary 2·last, id last) in cell||id order: the new
	// row with the same salary and a larger id, then the next odd salary, then
	// the original rows from last+2 on.
	want := []uint64{101, 102}
	for i := last + 2; i <= 40; i++ {
		want = append(want, i)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("after the boundary at row %d the cursor returned %v, want %v", last, got, want)
	}
}

// TestWalkLimitPushdown verifies that a limit stops the walk — of the index
// and of the heap, filtered or not — after that many rows, instead of
// visiting every match and slicing afterwards.
func TestWalkLimitPushdown(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	var rows []proto.Row
	for i := uint64(1); i <= 200; i++ {
		rows = append(rows, row(i, i))
	}
	if err := s.Insert("employees", rows); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	tb := s.tables["employees"]
	for _, f := range []*proto.Filter{
		nil,
		{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(0), Hi: oppCell(500)},
		{Col: "note", Op: proto.FilterRange, Lo: []byte("n"), Hi: []byte("nz")},
	} {
		for limit, want := range map[uint64]int{10: 10, 0: 200} {
			cur, err := tb.openCursor(f, NoColumns, limit)
			if err != nil {
				t.Fatal(err)
			}
			visited := 0
			if err := cur.walk(tb, func(*page, int) bool { visited++; return true }); err != nil {
				t.Fatal(err)
			}
			if visited != want {
				t.Fatalf("filter %v limit %d: walk visited %d rows, want %d", f, limit, visited, want)
			}
		}
	}
}

// TestBatchesOwnTheirBytes pins the ownership rule that replaced cell
// immutability (see page and ScanCursor): a page's slab is overwritten in
// place by UPDATE and shifted by INSERT and DELETE, so every Scan response
// and cursor batch must own its bytes. A reader takes a batch, lets the
// store lock go, waits until a concurrent writer has rewritten the very rows
// it was just handed (with notes of changing length, so slabs shift, plus a
// row inserted and deleted mid-page) and only then reads the batch: it must
// be unchanged, and each row must be one version of itself. A batch aliasing
// page storage fails the comparison — and is a data race under -race, where
// CI runs this, on a memory store and on one whose cache keeps evicting.
func TestBatchesOwnTheirBytes(t *testing.T) {
	const nRows = 64
	version := func(id, v uint64) proto.Row {
		r := row(id, v)
		r.Cells[2] = bytes.Repeat([]byte{byte(v)}, int(v%23))
		return r
	}
	check := func(rows []proto.Row, snapshot []proto.Row) error {
		for i, r := range rows {
			v := binary.BigEndian.Uint64(r.Cells[0][oppCellSize-8:])
			if want := version(r.ID, v); !reflect.DeepEqual(r.Cells[1], want.Cells[1]) || !bytes.Equal(r.Cells[2], want.Cells[2]) {
				return fmt.Errorf("row %d mixes versions: %v", r.ID, r.Cells)
			}
			if !reflect.DeepEqual(r, snapshot[i]) {
				return fmt.Errorf("row %d changed after its batch was returned:\n got %v\nwant %v", r.ID, r, snapshot[i])
			}
		}
		return nil
	}
	clone := func(rows []proto.Row) []proto.Row {
		out := make([]proto.Row, len(rows))
		for i, r := range rows {
			out[i].ID = r.ID
			for _, c := range r.Cells {
				out[i].Cells = append(out[i].Cells, slices.Clone(c))
			}
		}
		return out
	}
	for name, open := range map[string]func() *Store{
		"memory": func() *Store { return memStore(t) },
		"tiny cache": func() *Store {
			s, err := OpenOptions(t.TempDir(), tinyOptions())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := open()
			defer s.Close()
			mustCreate(t, s)
			var rows []proto.Row
			for i := uint64(1); i <= nRows; i++ {
				rows = append(rows, version(2*i, 1))
			}
			if err := s.Insert("employees", rows); err != nil {
				t.Fatal(err)
			}
			var passes atomic.Uint64
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() { // writer: rewrites every row, and shifts every page
				defer close(done)
				for v := uint64(2); ; v++ {
					select {
					case <-stop:
						return
					default:
					}
					upd := make([]proto.Row, 0, nRows)
					for i := uint64(1); i <= nRows; i++ {
						upd = append(upd, version(2*i, v))
					}
					err := s.Update("employees", upd)
					if err == nil {
						err = s.Insert("employees", []proto.Row{version(2*(v%nRows)+1, v)})
					}
					if err == nil {
						_, err = s.Delete("employees", []uint64{2*(v%nRows) + 1})
					}
					if err != nil {
						t.Error(err)
						return
					}
					passes.Add(1)
				}
			}()
			// afterRewrite waits until the writer has completed a whole pass
			// that started after the call.
			afterRewrite := func() {
				for target := passes.Load() + 2; passes.Load() < target; {
					select {
					case <-done:
						return
					default:
						runtime.Gosched()
					}
				}
			}
			for n := 0; n < 20 && !t.Failed(); n++ {
				resp, err := s.Scan("employees", nil, nil, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				snapshot := clone(resp.Rows)
				afterRewrite()
				if err := check(resp.Rows, snapshot); err != nil {
					t.Fatalf("Scan: %v", err)
				}
				cur, err := s.OpenCursor("employees", nil, nil, 0, 512)
				if err != nil {
					t.Fatal(err)
				}
				// Each batch is read again after the writer's next pass and
				// after the cursor has built the batch that follows it.
				var held, heldSnapshot []proto.Row
				for {
					b, err := cur.Next()
					if err != nil {
						t.Fatal(err)
					}
					afterRewrite()
					if err := check(held, heldSnapshot); err != nil {
						t.Fatalf("cursor batch: %v", err)
					}
					if b == nil {
						break
					}
					held, heldSnapshot = b.Rows, clone(b.Rows)
				}
			}
			close(stop)
			<-done
		})
	}
}

// TestProvedCursor: a proved cursor's last batch, and only it, carries the
// proof, the same proof however the rows were cut into batches. The scan
// begins at its first batch, so a write before it is proved over, while a
// write between batches fails the scan with ErrConcurrentWrite and no proof
// — also when the write puts the table back at a state of the same size.
func TestProvedCursor(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	var rows []proto.Row
	for i := uint64(1); i <= 200; i++ {
		rows = append(rows, row(i, i*7%200))
	}
	if err := s.Insert("employees", rows); err != nil {
		t.Fatal(err)
	}
	f := &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(20), Hi: oppCell(150)}
	proved := func(batchBytes int) *ScanCursor {
		t.Helper()
		cur, err := s.OpenCursor("employees", f, nil, 0, batchBytes)
		if err == nil {
			err = cur.Prove()
		}
		if err != nil {
			t.Fatal(err)
		}
		return cur
	}
	whole, err := s.Scan("employees", f, nil, 0, true)
	if err != nil || len(whole.Proof) == 0 {
		t.Fatalf("Scan with proof: %v", err)
	}
	cur := proved(256)
	// A write before the first batch: the scan proves the state after it.
	if err := s.Update("employees", []proto.Row{row(7, 7*7%200)}); err != nil {
		t.Fatal(err)
	}
	var got []proto.Row
	batches := 0
	for {
		b, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		batches++
		got = append(got, b.Rows...)
		if done := cur.done; done != (len(b.Proof) > 0) {
			t.Fatalf("batch %d: proof of %d bytes, last = %v", batches, len(b.Proof), done)
		}
		if cur.done && (!bytes.Equal(b.Proof, whole.Proof) || !sameRows(whole, &proto.RowsResponse{Rows: got})) {
			t.Fatal("the batched scan's rows and proof differ from the one-batch scan's")
		}
	}
	if batches < 3 {
		t.Fatalf("%d batches; want several", batches)
	}

	// An empty range proves too, in one batch that carries only the proof.
	empty, err := s.OpenCursor("employees", &proto.Filter{Col: "salary#o", Op: proto.FilterEq, Lo: oppCell(999)}, nil, 0, 0)
	if err == nil {
		err = empty.Prove()
	}
	if b, err2 := empty.Next(); err != nil || err2 != nil || b == nil || len(b.Rows) != 0 || len(b.Proof) == 0 || b.Columns == nil {
		t.Fatalf("empty proved scan: %+v, %v, %v", b, err, err2)
	}

	// A write between batches — a delete and an insert leave as many rows.
	cur = proved(256)
	if b, err := cur.Next(); err != nil || b == nil || len(b.Proof) != 0 {
		t.Fatalf("first batch: %v, %v", b, err)
	}
	if _, err := s.Delete("employees", []uint64{100}); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("employees", []proto.Row{row(100, 100*7%200)}); err != nil {
		t.Fatal(err)
	}
	for {
		b, err := cur.Next()
		if errors.Is(err, ErrConcurrentWrite) {
			break
		}
		if err != nil || b == nil || len(b.Proof) != 0 {
			t.Fatalf("after a write between batches: %+v, %v; want ErrConcurrentWrite and no proof", b, err)
		}
	}

	// What cannot be proved is refused when asked, before any batch.
	for name, c := range map[string]struct {
		f     *proto.Filter
		limit uint64
	}{
		"no filter": {nil, 0},
		"a limit":   {f, 3},
		"unindexed": {&proto.Filter{Col: "note", Op: proto.FilterEq, Lo: []byte("n1")}, 0},
	} {
		cur, err := s.OpenCursor("employees", c.f, nil, c.limit, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := cur.Prove(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: Prove = %v, want ErrBadRequest", name, err)
		}
	}
}

// TestOneRowReadAllocs: a one-row read — a cursor over an indexed equality
// filter matching one row, opened and drained — allocates 9 objects. Its one
// batch is its last, whose rows take the batch's cell buffer (for a row
// this small, the scratch space inside the cursor) instead of a copy of it:
// a copy is the tenth.
func TestOneRowReadAllocs(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	for i := uint64(1); i <= 100; i++ {
		if err := s.Insert("employees", []proto.Row{row(i, i)}); err != nil {
			t.Fatal(err)
		}
	}
	f := &proto.Filter{Col: "salary#o", Op: proto.FilterEq, Lo: oppCell(50)}
	read := func() {
		cur, err := s.OpenCursor("employees", f, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cur.Next()
		if err != nil || b == nil || len(b.Rows) != 1 || !bytes.Equal(b.Rows[0].Cells[0], oppCell(50)) {
			t.Fatalf("the read returned %v, %v", b, err)
		}
	}
	read() // builds the index
	if allocs := testing.AllocsPerRun(100, read); allocs > 9 {
		t.Errorf("a one-row read allocates %.0f objects, want at most 9", allocs)
	}
}

// TestLastBatchBuffer: a cursor's last batch hands its rows the cell buffer
// only when that wastes little — the scratch space inside the batch, or a
// buffer at most a fifth spare — and copies a small last batch out of a
// buffer that a larger earlier batch grew, so the rows do not pin it.
func TestLastBatchBuffer(t *testing.T) {
	for _, tc := range []struct {
		name       string
		grow, rows int
		shared     bool
	}{
		{"in-struct scratch", 0, 1, true},
		{"tight grown buffer", 1000, 1000, true},
		{"one row in a grown buffer", 1000, 1, false},
	} {
		var rb rowBatch
		rb.widths, rb.ids, rb.buf = []int{8}, rb.idsArr[:0], rb.bufArr[:0]
		rb.reserve(tc.grow, 8*tc.grow)
		for i := range tc.rows {
			rb.ids = append(rb.ids, uint64(i))
			rb.addID(uint64(i))
		}
		buf := rb.buf
		rows := rb.rows(true)
		if len(rows) != tc.rows || binary.BigEndian.Uint64(rows[tc.rows-1].Cells[0]) != uint64(tc.rows-1) {
			t.Fatalf("%s: rows %v", tc.name, rows[len(rows)-1])
		}
		if shared := &rows[0].Cells[0][0] == &buf[0]; shared != tc.shared {
			t.Errorf("%s: rows share the %d-byte buffer of %d: %v, want %v", tc.name, len(buf), cap(buf), shared, tc.shared)
		}
	}
}
