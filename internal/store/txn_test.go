package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sssdb/internal/btree"
	"sssdb/internal/proto"
)

func encOps(t *testing.T, msgs ...proto.Message) [][]byte {
	t.Helper()
	out := make([][]byte, len(msgs))
	for i, m := range msgs {
		out[i] = proto.Encode(m)
	}
	return out
}

// TestPrepareTxRejectsDuplicateRowID pins the prepare-time duplicate check:
// a prepare ack promises the commit cannot be rejected outright, so an
// insert colliding with a live row (the stale-catalog client failure mode)
// must fail at prepare — where the coordinator can still abort — never at
// commit, when the decision is already durable at the client.
func TestPrepareTxRejectsDuplicateRowID(t *testing.T) {
	s := memStore(t)
	defer s.Close()
	if err := s.CreateTable(testSpec()); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("employees", []proto.Row{row(1, 10), row(2, 20)}); err != nil {
		t.Fatal(err)
	}

	// Colliding insert → rejected at prepare, nothing staged.
	err := s.PrepareTx(100, encOps(t,
		&proto.InsertRequest{Table: "employees", Rows: []proto.Row{row(1, 99)}}))
	if !errors.Is(err, ErrDuplicateRow) {
		t.Fatalf("colliding prepare: %v, want ErrDuplicateRow", err)
	}
	if n := s.StagedTxs(); n != 0 {
		t.Fatalf("rejected prepare left %d staged txs", n)
	}

	// Two inserts of the same id within one batch → rejected.
	err = s.PrepareTx(101, encOps(t,
		&proto.InsertRequest{Table: "employees", Rows: []proto.Row{row(7, 70)}},
		&proto.InsertRequest{Table: "employees", Rows: []proto.Row{row(7, 71)}}))
	if !errors.Is(err, ErrDuplicateRow) {
		t.Fatalf("within-batch duplicate: %v, want ErrDuplicateRow", err)
	}

	// Delete-then-reinsert of a live id is legal: ops apply in order at
	// commit, so the simulation must track the delete.
	ops := encOps(t,
		&proto.DeleteRequest{Table: "employees", RowIDs: []uint64{1}},
		&proto.InsertRequest{Table: "employees", Rows: []proto.Row{row(1, 50)}})
	if err := s.PrepareTx(102, ops); err != nil {
		t.Fatalf("delete-then-reinsert prepare: %v", err)
	}
	// Re-prepare is idempotent.
	if err := s.PrepareTx(102, ops); err != nil {
		t.Fatalf("re-prepare: %v", err)
	}
	if err := s.CommitTx(102); err != nil {
		t.Fatalf("commit: %v", err)
	}
	got, err := s.RowCount("employees")
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("after delete+reinsert commit: %d rows, want 2", got)
	}
	// Fresh ids still stage and commit fine after id 1 was recycled.
	if err := s.PrepareTx(103, encOps(t,
		&proto.InsertRequest{Table: "employees", Rows: []proto.Row{row(3, 30)}})); err != nil {
		t.Fatalf("fresh prepare: %v", err)
	}
	if err := s.CommitTx(103); err != nil {
		t.Fatalf("fresh commit: %v", err)
	}
	if n := s.StagedTxs(); n != 0 {
		t.Fatalf("%d staged txs after commits", n)
	}
}

// durableStore opens a store in a fresh directory with no background
// checkpoint, so WAL record and fsync counts move only when the test moves
// them.
func durableStore(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := OpenOptions(dir, Options{PageBytes: 1 << 10, CacheBytes: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// dumpStore renders everything the mutation path maintains — every page's
// payload and every index's keys, in order — after checking that each index
// holds exactly the heap's rows. It builds every indexed column's tree that
// no read has built yet.
func dumpStore(t testing.TB, s *Store) string {
	t.Helper()
	specs := s.ListTables() // sorted by name
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b strings.Builder
	for _, spec := range specs {
		tb := s.tables[spec.Name]
		fmt.Fprintf(&b, "table %s: %d rows\n", spec.Name, tb.heap.count)
		for _, pm := range tb.heap.pages {
			p, err := s.cache.acquire(pm)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, " page [%d, %d] %x\n", pm.firstID, pm.lastID, p.AppendTo(nil))
		}
		for ci, col := range spec.Columns {
			if !col.Indexed {
				continue
			}
			idx, err := tb.index(ci)
			if err != nil {
				t.Fatal(err)
			}
			keys := 0
			var it btree.Iter
			for idx.Seek(&it, nil, 0); it.Next(); {
				keys++
				p, i, err := tb.row(it.ID())
				if err != nil {
					t.Fatalf("index %s has an entry for row %d: %v", col.Name, it.ID(), err)
				}
				if !bytes.Equal(p.Cell(i, ci), it.Key()) {
					t.Fatalf("index %s entry (%x, %d) does not match the row's cell %x", col.Name, it.Key(), it.ID(), p.Cell(i, ci))
				}
				fmt.Fprintf(&b, " index %s %x%016x\n", col.Name, it.Key(), it.ID())
			}
			if keys != tb.heap.count {
				t.Fatalf("index %s holds %d keys, the heap %d rows", col.Name, keys, tb.heap.count)
			}
		}
	}
	return b.String()
}

// TestCommitTxOneRecordOneFsync pins what a mutation costs and when it costs
// nothing: a commit is one WAL record and one fsync however many ops it
// carries; a mutation that fails validation or changes no row appends and
// syncs nothing, and applies nothing.
func TestCommitTxOneRecordOneFsync(t *testing.T) {
	ins := func(rows ...proto.Row) proto.Message {
		return &proto.InsertRequest{Table: "employees", Rows: rows}
	}
	upd := func(rows ...proto.Row) proto.Message {
		return &proto.UpdateRequest{Table: "employees", Rows: rows}
	}
	del := func(ids ...uint64) proto.Message {
		return &proto.DeleteRequest{Table: "employees", RowIDs: ids}
	}
	commit := func(ops ...proto.Message) func(*testing.T, *Store) error {
		return func(t *testing.T, s *Store) error {
			if err := s.PrepareTx(7, encOps(t, ops...)); err != nil {
				t.Fatalf("prepare: %v", err)
			}
			return s.CommitTx(7)
		}
	}
	cases := []struct {
		name    string
		run     func(*testing.T, *Store) error
		wantErr error
		records uint64 // WAL records and fsyncs the run must add
		staged  int
		want    map[uint64]uint64 // row id -> salary afterwards
	}{
		{name: "three-op commit", run: commit(ins(row(10, 100)), upd(row(1, 11)), del(2)),
			records: 1, want: map[uint64]uint64{1: 11, 3: 30, 10: 100}},
		{name: "commit of many rows in many ops", run: commit(ins(row(10, 100), row(11, 110)), ins(row(12, 120)),
			upd(row(10, 101), row(1, 11)), upd(row(10, 102)), del(11, 2), ins(row(2, 21))),
			records: 1, want: map[uint64]uint64{1: 11, 2: 21, 3: 30, 10: 102, 12: 120}},
		{name: "commit whose later op no longer validates", run: func(t *testing.T, s *Store) error {
			if err := s.PrepareTx(7, encOps(t, ins(row(10, 100)), upd(row(2, 22)))); err != nil {
				t.Fatalf("prepare: %v", err)
			}
			// Row 2 goes away between prepare and commit (one record).
			if n, err := s.Delete("employees", []uint64{2}); err != nil || n != 1 {
				t.Fatalf("delete: %d, %v", n, err)
			}
			return s.CommitTx(7)
		}, wantErr: ErrNoSuchRow, records: 1, staged: 1, want: map[uint64]uint64{1: 10, 3: 30}},
		{name: "commit that changes nothing", run: commit(del(98, 99), ins(), upd()),
			want: map[uint64]uint64{1: 10, 2: 20, 3: 30}},
		{name: "delete of no live id", run: func(t *testing.T, s *Store) error {
			n, err := s.Delete("employees", []uint64{98, 99})
			if n != 0 {
				t.Errorf("deleted %d rows", n)
			}
			return err
		}, want: map[uint64]uint64{1: 10, 2: 20, 3: 30}},
		{name: "delete counts live ids once", run: func(t *testing.T, s *Store) error {
			n, err := s.Delete("employees", []uint64{2, 99, 2})
			if n != 1 {
				t.Errorf("deleted %d rows, want 1", n)
			}
			return err
		}, records: 1, want: map[uint64]uint64{1: 10, 3: 30}},
		{name: "empty insert", run: func(t *testing.T, s *Store) error { return s.Insert("employees", nil) },
			want: map[uint64]uint64{1: 10, 2: 20, 3: 30}},
		{name: "empty update", run: func(t *testing.T, s *Store) error { return s.Update("employees", nil) },
			want: map[uint64]uint64{1: 10, 2: 20, 3: 30}},
		{name: "update of one id twice", run: func(t *testing.T, s *Store) error {
			return s.Update("employees", []proto.Row{row(1, 11), row(1, 12)})
		}, wantErr: ErrDuplicateRow, want: map[uint64]uint64{1: 10, 2: 20, 3: 30}},
		{name: "insert of one id twice", run: func(t *testing.T, s *Store) error {
			return s.Insert("employees", []proto.Row{row(8, 80), row(8, 81)})
		}, wantErr: ErrDuplicateRow, want: map[uint64]uint64{1: 10, 2: 20, 3: 30}},
		{name: "update of a missing row", run: func(t *testing.T, s *Store) error {
			return s.Update("employees", []proto.Row{row(1, 11), row(9, 90)})
		}, wantErr: ErrNoSuchRow, want: map[uint64]uint64{1: 10, 2: 20, 3: 30}},
		{name: "mutation of a missing table", run: func(t *testing.T, s *Store) error {
			return s.Insert("nope", []proto.Row{row(1, 1)})
		}, wantErr: ErrNoSuchTable, want: map[uint64]uint64{1: 10, 2: 20, 3: 30}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := durableStore(t, dir)
			mustCreate(t, s)
			if err := s.Insert("employees", []proto.Row{row(1, 10), row(2, 20), row(3, 30)}); err != nil {
				t.Fatal(err)
			}
			before := s.Stats()
			if err := tc.run(t, s); !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
			after := s.Stats()
			if got := after.WALRecords - before.WALRecords; got != tc.records {
				t.Errorf("%d WAL records appended, want %d", got, tc.records)
			}
			if got := after.WALFsyncs - before.WALFsyncs; got != tc.records {
				t.Errorf("%d WAL fsyncs, want %d", got, tc.records)
			}
			if got := s.StagedTxs(); got != tc.staged {
				t.Errorf("%d transactions staged afterwards, want %d", got, tc.staged)
			}
			checkAgainstOracle(t, s, tc.want)
			live := dumpStore(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := durableStore(t, dir)
			defer s2.Close()
			if replayed := dumpStore(t, s2); replayed != live {
				t.Errorf("replay differs from the live store:\n%s\nlive:\n%s", replayed, live)
			}
		})
	}
}

// TestCommitTxTornRecord cuts the WAL at every byte inside a commit's record:
// the store reopens with none of the transaction, and with all of it only
// once the whole record is there.
func TestCommitTxTornRecord(t *testing.T) {
	dir := t.TempDir()
	s := durableStore(t, dir)
	mustCreate(t, s)
	if err := s.Insert("employees", []proto.Row{row(1, 10), row(2, 20), row(3, 30)}); err != nil {
		t.Fatal(err)
	}
	segments, err := filepath.Glob(filepath.Join(dir, walPrefix+".*"))
	if err != nil || len(segments) != 1 {
		t.Fatalf("WAL segments %v, %v", segments, err)
	}
	size := func() int64 {
		fi, err := os.Stat(segments[0])
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	start := size()
	pre := dumpStore(t, s)
	if err := s.PrepareTx(1, encOps(t,
		&proto.InsertRequest{Table: "employees", Rows: []proto.Row{row(10, 100)}},
		&proto.UpdateRequest{Table: "employees", Rows: []proto.Row{row(1, 11)}},
		&proto.DeleteRequest{Table: "employees", RowIDs: []uint64{2}})); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitTx(1); err != nil {
		t.Fatal(err)
	}
	end := size()
	post := dumpStore(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if end <= start || pre == post {
		t.Fatalf("commit left the WAL at %d bytes (was %d)", end, start)
	}
	for cut := start; cut <= end; cut++ {
		crash := filepath.Join(t.TempDir(), "crash")
		copyDir(t, dir, crash)
		if err := os.Truncate(filepath.Join(crash, filepath.Base(segments[0])), cut); err != nil {
			t.Fatal(err)
		}
		s2 := durableStore(t, crash)
		got, want := dumpStore(t, s2), pre
		if cut == end {
			want = post
		}
		s2.Close()
		if got != want {
			t.Fatalf("WAL cut at byte %d of the record's [%d, %d): store is neither before nor after the transaction:\n%s",
				cut, start, end, got)
		}
	}
}

// TestCommitTxAtomicToReaders commits two-row transactions, one UPDATE op per
// row, while a reader scans: both rows always carry the same value, because
// the batch is applied under one hold of the store lock.
func TestCommitTxAtomicToReaders(t *testing.T) {
	s := memStore(t)
	defer s.Close()
	mustCreate(t, s)
	if err := s.Insert("employees", []proto.Row{row(1, 0), row(2, 0)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	torn := make(chan string, 1)
	go func() {
		defer close(torn)
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := s.Scan("employees", nil, nil, 0, false)
			if err != nil || len(resp.Rows) != 2 {
				torn <- fmt.Sprintf("scan: %d rows, %v", len(resp.Rows), err)
				return
			}
			if a, b := resp.Rows[0].Cells[0], resp.Rows[1].Cells[0]; !bytes.Equal(a, b) {
				torn <- fmt.Sprintf("reader saw half a transaction: row 1 = %x, row 2 = %x", a, b)
				return
			}
		}
	}()
	for v := uint64(1); v <= 300; v++ {
		if err := s.PrepareTx(v, encOps(t,
			&proto.UpdateRequest{Table: "employees", Rows: []proto.Row{row(1, v)}},
			&proto.UpdateRequest{Table: "employees", Rows: []proto.Row{row(2, v)}})); err != nil {
			t.Fatal(err)
		}
		if err := s.CommitTx(v); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if msg, ok := <-torn; ok {
		t.Fatal(msg)
	}
}

// TestMutationPathsAgree runs one op list three ways — autocommit, one
// transaction, WAL replay — and expects the same bytes in every page and
// every index: there is one apply.
func TestMutationPathsAgree(t *testing.T) {
	var ops []proto.Message
	var rows []proto.Row
	for id := uint64(1); id <= 120; id++ {
		rows = append(rows, row(id, id*7%50))
		if id%30 == 0 {
			ops = append(ops, &proto.InsertRequest{Table: "employees", Rows: rows})
			rows = nil
		}
	}
	ops = append(ops,
		&proto.UpdateRequest{Table: "employees", Rows: []proto.Row{row(5, 1000), row(77, 3)}},
		&proto.DeleteRequest{Table: "employees", RowIDs: []uint64{1, 60, 61, 119, 4000}},
		&proto.InsertRequest{Table: "employees", Rows: []proto.Row{row(60, 9), row(500, 1)}},
		&proto.UpdateRequest{Table: "employees", Rows: []proto.Row{row(60, 10)}},
		&proto.DeleteRequest{Table: "employees", RowIDs: []uint64{500}})

	autoDir, txDir := t.TempDir(), t.TempDir()
	auto := durableStore(t, autoDir)
	mustCreate(t, auto)
	for _, op := range ops {
		if _, err := auto.Mutate(op); err != nil {
			t.Fatalf("%T: %v", op, err)
		}
	}
	tx := durableStore(t, txDir)
	mustCreate(t, tx)
	for _, step := range []proto.Message{
		&proto.TxPrepareRequest{TxID: 9, Ops: encOps(t, ops...)},
		&proto.TxCommitRequest{TxID: 9},
	} {
		if _, err := tx.Mutate(step); err != nil {
			t.Fatalf("%T: %v", step, err)
		}
	}
	want := dumpStore(t, auto)
	if got := dumpStore(t, tx); got != want {
		t.Errorf("transaction commit differs from autocommit:\n%s\nautocommit:\n%s", got, want)
	}
	if a, b := auto.Stats().WALRecords, tx.Stats().WALRecords; a != uint64(len(ops))+1 || b != 2 {
		t.Errorf("WAL records: autocommit %d, transaction %d; want %d and 2", a, b, len(ops)+1)
	}
	for _, side := range []struct {
		name, dir string
		s         *Store
	}{{"autocommit", autoDir, auto}, {"transaction", txDir, tx}} {
		if err := side.s.Close(); err != nil {
			t.Fatal(err)
		}
		re := durableStore(t, side.dir)
		if got := dumpStore(t, re); got != want {
			t.Errorf("replay of the %s WAL differs:\n%s\nwant:\n%s", side.name, got, want)
		}
		re.Close()
	}
}

// FuzzApplyRecord feeds arbitrary bytes through the mutation path as a WAL
// record — decode, validate, apply — on a small seeded store. It must never
// panic; whatever it does, heap, indexes and page accounting agree
// afterwards, and a record that is refused has changed nothing.
func FuzzApplyRecord(f *testing.F) {
	emp := func(m proto.Message) []byte { return proto.Encode(m) }
	other := testSpec()
	other.Name = "other"
	tx := &proto.TxPrepareRequest{TxID: 1, Ops: [][]byte{
		emp(&proto.DeleteRequest{Table: "employees", RowIDs: []uint64{1, 9}}),
		emp(&proto.InsertRequest{Table: "employees", Rows: []proto.Row{row(1, 50), row(4, 40)}}),
		emp(&proto.UpdateRequest{Table: "employees", Rows: []proto.Row{row(4, 41), row(2, 21)}}),
	}}
	for _, m := range []proto.Message{
		&proto.CreateTableRequest{Spec: other},
		&proto.CreateTableRequest{Spec: testSpec()}, // exists
		&proto.DropTableRequest{Table: "employees"},
		&proto.InsertRequest{Table: "employees", Rows: []proto.Row{row(4, 40), row(5, 50)}},
		&proto.InsertRequest{Table: "employees", Rows: []proto.Row{row(4, 40), row(2, 20)}},        // live id
		&proto.InsertRequest{Table: "employees", Rows: []proto.Row{{ID: 6, Cells: [][]byte{{1}}}}}, // wrong shape
		&proto.UpdateRequest{Table: "employees", Rows: []proto.Row{row(1, 11), row(3, 31)}},
		&proto.UpdateRequest{Table: "employees", Rows: []proto.Row{row(1, 11), row(1, 12)}}, // twice
		&proto.DeleteRequest{Table: "employees", RowIDs: []uint64{2, 2, 7}},
		tx,
		&proto.TxPrepareRequest{TxID: 2, Ops: [][]byte{emp(tx)}},                                          // nested batch
		&proto.TxPrepareRequest{TxID: 3, Ops: [][]byte{emp(&proto.DropTableRequest{Table: "employees"})}}, // DDL in a batch
		&proto.TxPrepareRequest{TxID: 4, Ops: [][]byte{{0x40}, nil}},                                      // undecodable ops
		&proto.ScanRequest{Table: "employees"},                                                            // not a mutation
	} {
		f.Add(emp(m))
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		s := memStore(t)
		defer s.Close()
		mustCreate(t, s)
		if err := s.Insert("employees", []proto.Row{row(1, 10), row(2, 20), row(3, 30)}); err != nil {
			t.Fatal(err)
		}
		before := dumpStore(t, s)
		err := s.applyRecord(rec)
		checkPageAccounting(t, s)
		if after := dumpStore(t, s); err != nil && after != before {
			t.Fatalf("record refused (%v) yet the store changed:\n%s\nwas:\n%s", err, after, before)
		}
	})
}
