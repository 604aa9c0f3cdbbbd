package store

import (
	"errors"
	"io/fs"
	mrand "math/rand"
	"os"
	"path/filepath"
	"testing"

	"sssdb/internal/proto"
)

// tinyOptions force heavy paging: pages a few rows wide and a cache that
// holds only a handful of them, so every test below churns through
// fault-in, eviction, and write-back paths constantly.
func tinyOptions() Options {
	return Options{PageBytes: 1 << 10, CacheBytes: 8 << 10, CheckpointInterval: -1}
}

// copyDir snapshots a store directory, standing in for the on-disk state a
// crash would leave behind at the moment it is called.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying %s: %v", src, err)
	}
}

// checkAgainstOracle compares the store's full contents with the oracle:
// row set, salaries (via the OPP cell), and row count.
func checkAgainstOracle(t *testing.T, s *Store, oracle map[uint64]uint64) {
	t.Helper()
	resp, err := s.Scan("employees", nil, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != len(oracle) {
		t.Fatalf("scan returned %d rows, oracle has %d", len(resp.Rows), len(oracle))
	}
	for _, r := range resp.Rows {
		sal, ok := oracle[r.ID]
		if !ok {
			t.Fatalf("row %d not in oracle", r.ID)
		}
		if want := oppCell(sal); string(r.Cells[0]) != string(want) {
			t.Fatalf("row %d: salary cell %x, want %x", r.ID, r.Cells[0], want)
		}
	}
	n, err := s.RowCount("employees")
	if err != nil {
		t.Fatal(err)
	}
	if n != len(oracle) {
		t.Fatalf("RowCount %d, oracle %d", n, len(oracle))
	}
}

// TestCrashDuringCheckpoint kills a checkpoint after its first page write,
// between its page flushes and the manifest swap, and right after the swap
// (before and after the store directory is synced, and before cleanup and
// WAL truncation), then recovers from the abandoned directory state. Either
// way the store must come back exactly equal to the oracle: before the swap
// the old manifest plus the full WAL win and the new page files are
// orphans; after it the new manifest wins and the WAL suffix is empty. The
// failed checkpoint must let go of every page it captured, so the next write
// edits the resident page in place.
func TestCrashDuringCheckpoint(t *testing.T) {
	for _, stage := range []string{"page-written", "pages-flushed", "manifest-swapped", "store-dir-synced"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenOptions(dir, tinyOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			mustCreate(t, s)

			oracle := make(map[uint64]uint64)
			rng := mrand.New(mrand.NewSource(7))
			for i := uint64(1); i <= 200; i++ {
				sal := uint64(rng.Intn(1000))
				if err := s.Insert("employees", []proto.Row{row(i, sal)}); err != nil {
					t.Fatal(err)
				}
				oracle[i] = sal
			}
			// Baseline checkpoint so the crashing one has a prior manifest
			// and real per-page deltas to flush.
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := uint64(1); i <= 60; i++ {
				sal := uint64(rng.Intn(1000))
				if err := s.Update("employees", []proto.Row{row(i, sal)}); err != nil {
					t.Fatal(err)
				}
				oracle[i] = sal
			}
			if _, err := s.Delete("employees", []uint64{61, 62, 63}); err != nil {
				t.Fatal(err)
			}
			delete(oracle, 61)
			delete(oracle, 62)
			delete(oracle, 63)
			for i := uint64(201); i <= 260; i++ {
				sal := uint64(rng.Intn(1000))
				if err := s.Insert("employees", []proto.Row{row(i, sal)}); err != nil {
					t.Fatal(err)
				}
				oracle[i] = sal
			}

			crashDir := t.TempDir()
			boom := errors.New("simulated crash")
			s.ckptHook = func(at string) error {
				if at != stage {
					return nil
				}
				copyDir(t, dir, crashDir)
				return boom
			}
			if err := s.Checkpoint(); !errors.Is(err, boom) {
				t.Fatalf("checkpoint error = %v, want simulated crash", err)
			}
			s.ckptHook = nil
			if captured, _ := capturedPages(s); captured != 0 {
				t.Fatalf("%d pages still captured after the failed checkpoint", captured)
			}

			s2, err := OpenOptions(crashDir, tinyOptions())
			if err != nil {
				t.Fatalf("recovering from crash at %s: %v", stage, err)
			}
			defer s2.Close()
			checkAgainstOracle(t, s2, oracle)

			// The recovered store is a full peer: it can mutate and
			// checkpoint again from the crashed-upon state.
			if err := s2.Insert("employees", []proto.Row{row(999, 5)}); err != nil {
				t.Fatal(err)
			}
			oracle[999] = 5
			if err := s2.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, s2, oracle)
			delete(oracle, 999)

			// The original store shrugged off the failed checkpoint too.
			checkAgainstOracle(t, s, oracle)
			var pm *pageMeta
			s.cache.mu.Lock()
			for _, m := range s.tables["employees"].heap.pages {
				if m.res != nil {
					pm = m
				}
			}
			res := pm.res
			s.cache.mu.Unlock()
			id := res.IDs[0]
			if err := s.Update("employees", []proto.Row{row(id, 4242)}); err != nil {
				t.Fatal(err)
			}
			oracle[id] = 4242
			if pm.res != res {
				t.Fatalf("an update after the failed checkpoint copied page %d instead of editing it in place", pm.id)
			}
			checkAgainstOracle(t, s, oracle)
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckpointAfterReopenKeepsWrites: a store checkpointed, closed,
// reopened and checkpointed again before its first write — a provider's
// shutdown checkpoint, then one right after recovery — must keep the WAL
// segment it then appends to, so a crash copy taken after the next
// acknowledged INSERT holds both rows.
func TestCheckpointAfterReopenKeepsWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s)
	if err := s.Insert("employees", []proto.Row{row(1, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenOptions(dir, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("employees", []proto.Row{row(2, 20)}); err != nil {
		t.Fatal(err)
	}
	crashDir := t.TempDir()
	copyDir(t, dir, crashDir)
	s2, err := OpenOptions(crashDir, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkAgainstOracle(t, s2, map[uint64]uint64{1: 10, 2: 20})
}

// TestResidentBytesBounded drives a table ~10x the cache budget through
// full scans and mixed DML and checks after every operation that resident
// page bytes never exceed the budget plus one page of slack (the page
// being faulted in is protected from eviction until the operation ends).
func TestResidentBytesBounded(t *testing.T) {
	dir := t.TempDir()
	opts := tinyOptions()
	s, err := OpenOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustCreate(t, s)

	bound := uint64(opts.CacheBytes) + uint64(opts.PageBytes)
	assertBounded := func(when string) {
		t.Helper()
		st := s.Stats()
		if st.ResidentBytes > bound {
			t.Fatalf("%s: resident %d bytes exceeds budget %d (+1 page slack)",
				when, st.ResidentBytes, bound)
		}
	}

	rng := mrand.New(mrand.NewSource(11))
	const rows = 1200 // ~70 encoded bytes each: roughly 10x the 8 KiB budget
	for i := uint64(1); i <= rows; i++ {
		if err := s.Insert("employees", []proto.Row{row(i, uint64(rng.Intn(10000)))}); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			assertBounded("insert")
		}
	}
	for pass := 0; pass < 3; pass++ {
		resp, err := s.Scan("employees", nil, nil, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Rows) != rows {
			t.Fatalf("full scan saw %d rows, want %d", len(resp.Rows), rows)
		}
		assertBounded("full scan")
	}
	// 50/50 mixed: random point reads against random updates.
	for i := 0; i < 400; i++ {
		id := uint64(rng.Intn(rows)) + 1
		if i%2 == 0 {
			resp, err := s.Scan("employees", &proto.Filter{
				Col: "note", Op: proto.FilterEq, Lo: []byte("nope"),
			}, nil, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			_ = resp
		} else if err := s.Update("employees", []proto.Row{row(id, uint64(rng.Intn(10000)))}); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			assertBounded("mixed")
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	assertBounded("checkpoint")

	st := s.Stats()
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("expected eviction churn, got evictions=%d writebacks=%d",
			st.Evictions, st.Writebacks)
	}
	if st.ResidentPages > st.Pages {
		t.Fatalf("resident pages %d > directory pages %d", st.ResidentPages, st.Pages)
	}
}

// TestTableWithinBudgetNeverEvicts: a table that fits its cache budget is
// read from disk once and then served from memory. Loaded, checkpointed and
// reopened with a budget of exactly its resident bytes, it gets through
// repeated full scans without one eviction.
func TestTableWithinBudgetNeverEvicts(t *testing.T) {
	dir := t.TempDir()
	opts := tinyOptions()
	opts.CacheBytes = -1
	s, err := OpenOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s)
	const rows = 1200 // ~10x tinyOptions' budget, as in TestResidentBytesBounded
	for i := uint64(1); i <= rows; i++ {
		if err := s.Insert("employees", []proto.Row{row(i, i*7%10000)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tableBytes := s.Stats().ResidentBytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	opts.CacheBytes = int64(tableBytes)
	s, err = OpenOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for pass := 0; pass < 3; pass++ {
		resp, err := s.Scan("employees", nil, nil, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Rows) != rows {
			t.Fatalf("full scan saw %d rows, want %d", len(resp.Rows), rows)
		}
	}
	st := s.Stats()
	if st.Evictions != 0 {
		t.Fatalf("%d evictions scanning a %d-byte table under a %d-byte budget", st.Evictions, tableBytes, opts.CacheBytes)
	}
	if st.CacheMisses == 0 || st.CacheHits == 0 || st.ResidentBytes != tableBytes {
		t.Fatalf("table not paged in once and then served from memory: %d misses, %d hits, %d of %d bytes resident",
			st.CacheMisses, st.CacheHits, st.ResidentBytes, tableBytes)
	}
}

// TestTinyCacheRandomizedDifferential is the oracle test under maximum
// paging pressure: a cache of a few pages, random DML, periodic
// checkpoints, and a reopen, with cursors cross-checked against scans.
func TestTinyCacheRandomizedDifferential(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s)

	oracle := make(map[uint64]uint64)
	rng := mrand.New(mrand.NewSource(23))
	nextID := uint64(1)
	mutate := func(steps int) {
		for i := 0; i < steps; i++ {
			switch rng.Intn(3) {
			case 0:
				id := nextID
				nextID++
				sal := uint64(rng.Intn(1000))
				if err := s.Insert("employees", []proto.Row{row(id, sal)}); err != nil {
					t.Fatal(err)
				}
				oracle[id] = sal
			case 1:
				for id := range oracle {
					if _, err := s.Delete("employees", []uint64{id}); err != nil {
						t.Fatal(err)
					}
					delete(oracle, id)
					break
				}
			case 2:
				for id := range oracle {
					sal := uint64(rng.Intn(1000))
					if err := s.Update("employees", []proto.Row{row(id, sal)}); err != nil {
						t.Fatal(err)
					}
					oracle[id] = sal
					break
				}
			}
		}
	}

	mutate(500)
	checkAgainstOracle(t, s, oracle)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mutate(300)
	checkAgainstOracle(t, s, oracle)

	// Cursor over the heap path must agree with the buffered scan.
	cur, err := s.OpenCursor("employees", nil, nil, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for {
		batch, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		seen += len(batch.Rows)
	}
	if seen != len(oracle) {
		t.Fatalf("cursor saw %d rows, oracle has %d", seen, len(oracle))
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenOptions(dir, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkAgainstOracle(t, s, oracle)
	mutate(200)
	checkAgainstOracle(t, s, oracle)
}

// benchPagedStore builds a durable store whose table is ratio times larger
// than the page-cache budget, so scans and point ops must page.
func benchPagedStore(b *testing.B, cacheBytes int64, ratio int) (*Store, int) {
	b.Helper()
	dir := b.TempDir()
	s, err := OpenOptions(dir, Options{
		PageBytes: 4 << 10, CacheBytes: cacheBytes, CheckpointInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	if err := s.CreateTable(testSpec()); err != nil {
		b.Fatal(err)
	}
	rowBytes := 1 // id 1 as a varint, then the cells
	for _, c := range row(1, 1).Cells {
		rowBytes += len(c)
	}
	n := int(cacheBytes) * ratio / rowBytes
	batch := make([]proto.Row, 0, 256)
	for i := 1; i <= n; i++ {
		batch = append(batch, row(uint64(i), uint64(i%100000)))
		if len(batch) == cap(batch) || i == n {
			if err := s.Insert("employees", batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	return s, n
}

// BenchmarkPagedScan measures full-table scans over a table 4x the cache
// budget; every pass faults the whole table through the cache. Resident
// bytes are asserted against the budget and reported as a metric.
func BenchmarkPagedScan(b *testing.B) {
	const cacheBytes = 256 << 10
	s, n := benchPagedStore(b, cacheBytes, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Scan("employees", nil, nil, 0, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Rows) != n {
			b.Fatalf("scan saw %d rows, want %d", len(resp.Rows), n)
		}
	}
	b.StopTimer()
	st := s.Stats()
	if st.ResidentBytes > cacheBytes+(4<<10) {
		b.Fatalf("resident %d bytes exceeds %d budget", st.ResidentBytes, cacheBytes)
	}
	b.ReportMetric(float64(st.ResidentBytes), "resident-bytes")
	b.ReportMetric(float64(n), "rows")
}

// BenchmarkPagedMixed measures a 50/50 point-read/update workload against
// the same 4x-budget table.
func BenchmarkPagedMixed(b *testing.B) {
	const cacheBytes = 256 << 10
	s, n := benchPagedStore(b, cacheBytes, 4)
	rng := mrand.New(mrand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(rng.Intn(n)) + 1
		if i%2 == 0 {
			if _, err := s.Scan("employees", &proto.Filter{
				Col: "salary#o", Op: proto.FilterEq, Lo: oppCell(id % 100000),
			}, nil, 1, false); err != nil {
				b.Fatal(err)
			}
		} else if err := s.Update("employees", []proto.Row{row(id, id%100000)}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.Stats()
	if st.ResidentBytes > cacheBytes+(4<<10) {
		b.Fatalf("resident %d bytes exceeds %d budget", st.ResidentBytes, cacheBytes)
	}
	b.ReportMetric(float64(st.ResidentBytes), "resident-bytes")
}
