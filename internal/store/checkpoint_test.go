package store

import (
	"maps"
	mrand "math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sssdb/internal/proto"
)

// capturedPages counts the pages of s an in-flight checkpoint holds
// captured, and how many of those a write has since replaced by a copy.
func capturedPages(s *Store) (captured, copied int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	for _, t := range s.tables {
		for _, pm := range t.heap.pages {
			if pm.ckpt != nil {
				captured++
				if pm.res != pm.ckpt {
					copied++
				}
			}
		}
	}
	return captured, copied
}

// TestCheckpointCaptureUnderWrites runs a checkpoint of a fully dirty table
// while UPDATEs, INSERTs between existing rows (which split full pages) and
// DELETEs hit pages it has captured, a batch of them running beside each
// page write. The page files must hold the state captured in phase 1: a
// crash copy taken at the manifest swap recovers, through the manifest plus
// the WAL written since, to the oracle. The live store equals the oracle
// too, holds no page captured once the checkpoint is done, and after one
// more checkpoint every page is clean.
func TestCheckpointCaptureUnderWrites(t *testing.T) {
	dir := t.TempDir()
	opts := Options{PageBytes: 1 << 10, CacheBytes: -1, CheckpointInterval: -1}
	s, err := OpenOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustCreate(t, s)
	// Rows at even ids, so that an INSERT at an odd id lands inside a
	// captured page.
	oracle := make(map[uint64]uint64)
	var load []proto.Row
	for id := uint64(2); id <= 1200; id += 2 {
		load = append(load, row(id, id%997))
		oracle[id] = id % 997
	}
	if err := s.Insert("employees", load); err != nil {
		t.Fatal(err)
	}
	pagesBefore := s.Stats().Pages

	rng := mrand.New(mrand.NewSource(11))
	batch := func() {
		for k := 0; k < 6; k++ {
			id := uint64(1 + rng.Intn(1200))
			sal := uint64(rng.Intn(1000))
			_, present := oracle[id]
			var err error
			switch {
			case k%3 == 0: // a run of new rows between existing ones
				var run []proto.Row
				for odd := id | 1; odd < id+32; odd += 2 {
					if _, ok := oracle[odd]; !ok {
						run = append(run, row(odd, sal))
						oracle[odd] = sal
					}
				}
				err = s.Insert("employees", run)
			case k%3 == 1 && present:
				err = s.Update("employees", []proto.Row{row(id, sal)})
				oracle[id] = sal
			case present:
				_, err = s.Delete("employees", []uint64{id})
				delete(oracle, id)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}

	crashDir := t.TempDir()
	var (
		inflight   sync.WaitGroup
		atSwap     map[uint64]uint64
		copiedSeen int
	)
	s.ckptHook = func(stage string) error {
		switch stage {
		case "page-written":
			inflight.Wait()
			inflight.Add(1)
			go func() {
				defer inflight.Done()
				batch()
			}()
		case "manifest-swapped":
			inflight.Wait()
			_, copiedSeen = capturedPages(s)
			copyDir(t, dir, crashDir)
			atSwap = maps.Clone(oracle)
		}
		return nil
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.ckptHook = nil
	if t.Failed() {
		t.FailNow()
	}
	if copiedSeen == 0 {
		t.Fatal("no write hit a captured page")
	}
	if pagesAfter := s.Stats().Pages; pagesAfter <= pagesBefore {
		t.Fatalf("no page split under the checkpoint: %d pages before, %d after", pagesBefore, pagesAfter)
	}
	if captured, _ := capturedPages(s); captured != 0 {
		t.Fatalf("%d pages still captured after the checkpoint", captured)
	}
	checkAgainstOracle(t, s, oracle)

	s2, err := OpenOptions(crashDir, opts)
	if err != nil {
		t.Fatalf("recovering the copy taken at the manifest swap: %v", err)
	}
	defer s2.Close()
	checkAgainstOracle(t, s2, atSwap)

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	s.cache.mu.Lock()
	for _, pm := range s.tables["employees"].heap.pages {
		if pm.dirty || pm.dirtyCkpt || pm.ckpt != nil || pm.epoch != pm.durableEpoch {
			t.Errorf("page %d after a quiet checkpoint: dirty %v, dirtyCkpt %v, captured %v, epoch %d, durable %d",
				pm.id, pm.dirty, pm.dirtyCkpt, pm.ckpt != nil, pm.epoch, pm.durableEpoch)
		}
	}
	s.cache.mu.Unlock()
	s.mu.RUnlock()
}

// TestCheckpointSyncsStoreDirBeforeTruncating: the checkpoint's stages come
// in protocol order, and the store directory — whose entry for the new
// manifest is what makes the WAL segments it covers redundant — is synced
// while those segments are all still there; they go only afterwards.
func TestCheckpointSyncsStoreDirBeforeTruncating(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustCreate(t, s)
	for i := uint64(1); i <= 20; i++ {
		if err := s.Insert("employees", []proto.Row{row(i, i)}); err != nil {
			t.Fatal(err)
		}
	}
	segments := func() []string {
		segs, err := filepath.Glob(filepath.Join(dir, walPrefix+".*"))
		if err != nil {
			t.Fatal(err)
		}
		return segs
	}
	before := segments()
	var stages []string
	var atSync []string
	s.ckptHook = func(stage string) error {
		if len(stages) == 0 || stages[len(stages)-1] != stage {
			stages = append(stages, stage)
		}
		if stage == "store-dir-synced" {
			atSync = segments()
		}
		return nil
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := []string{"page-written", "pages-flushed", "manifest-swapped", "store-dir-synced"}
	if !slices.Equal(stages, want) {
		t.Fatalf("checkpoint stages %q, want %q", stages, want)
	}
	// Rotation added the new active segment; none of the old ones is gone.
	for _, seg := range before {
		if !slices.Contains(atSync, seg) {
			t.Fatalf("segment %s removed before the store directory was synced (segments then: %q)", seg, atSync)
		}
	}
	for _, seg := range segments() {
		if slices.Contains(before, seg) {
			t.Fatalf("segment %s survived the checkpoint that covers it", seg)
		}
	}
}

// dirtyEmpStore opens a durable store in dir holding n empSpec rows with
// every page resident and dirty — what a provider's first checkpoint after
// a bulk load finds.
func dirtyEmpStore(tb testing.TB, dir string, n int) *Store {
	tb.Helper()
	s, err := OpenOptions(dir, Options{CheckpointInterval: -1})
	if err != nil {
		tb.Fatal(err)
	}
	spec := empSpec()
	if err := s.CreateTable(spec); err != nil {
		tb.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(5))
	for id := 0; id < n; id += 2000 {
		batch := make([]proto.Row, min(2000, n-id))
		for i := range batch {
			batch[i] = randomRow(rng, &spec, uint64(id+i))
		}
		if err := s.Insert(spec.Name, batch); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// TestCheckpointAllocations: the first checkpoint of a freshly loaded
// 100 000-row table encodes its pages one at a time into one buffer instead
// of copying the whole dirty set, so it allocates well under the ≈9 MiB the
// table's pages occupy.
func TestCheckpointAllocations(t *testing.T) {
	s := dirtyEmpStore(t, t.TempDir(), 100_000)
	defer s.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	st := s.Stats()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("checkpoint of %d pages (%d resident bytes) allocated %d bytes, want at most 1 MiB", st.Pages, st.ResidentBytes, alloc)
	}
}

// watchLockWaits starts a reader that takes the store lock shared every few
// microseconds; the returned function stops it and reports the longest it
// waited.
func watchLockWaits(s *Store) (stop func() time.Duration) {
	var longest time.Duration
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			t0 := time.Now()
			s.mu.RLock()
			longest = max(longest, time.Since(t0))
			s.mu.RUnlock()
			time.Sleep(20 * time.Microsecond)
		}
	}()
	return func() time.Duration {
		close(quit)
		<-done
		return longest
	}
}

// BenchmarkCheckpoint times one checkpoint of a 100 000-row empSpec table
// (the setup is not timed) in two shapes:
//   - first: the first checkpoint after the load, every page resident and
//     dirty and none yet on disk;
//   - rewrite: a checkpoint after one UPDATE on each page of a checkpointed
//     table, so every page is written again and supersedes its old file.
//
// Beside B/op it reports max-rlock-wait-ms: the longest a reader waited for
// the store lock while the checkpoint ran — what phases 1 and 3 cost every
// statement in flight.
func BenchmarkCheckpoint(b *testing.B) {
	for _, bc := range []struct {
		name    string
		prepare func(b *testing.B, s *Store)
	}{
		{"first", func(*testing.B, *Store) {}},
		{"rewrite", touchEveryPage},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var longest time.Duration
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir, err := os.MkdirTemp("", "ckpt-bench-")
				if err != nil {
					b.Fatal(err)
				}
				s := dirtyEmpStore(b, dir, 100_000)
				bc.prepare(b, s)
				stop := watchLockWaits(s)
				b.StartTimer()
				err = s.Checkpoint()
				b.StopTimer()
				longest = max(longest, stop())
				s.Close()
				os.RemoveAll(dir)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(longest.Microseconds())/1000, "max-rlock-wait-ms")
		})
	}
}

// touchEveryPage checkpoints s, then updates the first row of each of its
// pages.
func touchEveryPage(b *testing.B, s *Store) {
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	spec := empSpec()
	rng := mrand.New(mrand.NewSource(6))
	var rows []proto.Row
	for _, pm := range s.tables[spec.Name].heap.pages {
		rows = append(rows, randomRow(rng, &spec, pm.firstID))
	}
	if err := s.Update(spec.Name, rows); err != nil {
		b.Fatal(err)
	}
}
