package client

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sssdb/internal/proto"
	"sssdb/internal/transport"
)

// --- parallelChunks unit coverage -----------------------------------------

func TestParallelChunksCoversRange(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 0}, {4, 0}, {1, 10}, {4, 100}, {4, 1024}, {8, 1000}, {3, 4096},
	} {
		hits := make([]int32, tc.n)
		err := parallelChunks(tc.workers, tc.n, func(start, end int) error {
			for i := start; i < end; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d n=%d: %v", tc.workers, tc.n, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d n=%d: index %d visited %d times", tc.workers, tc.n, i, h)
			}
		}
	}
}

func TestParallelChunksPropagatesError(t *testing.T) {
	want := errors.New("boom")
	err := parallelChunks(4, 4096, func(start, end int) error {
		if start >= 1024 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	// Inline path propagates too.
	if err := parallelChunks(1, 10, func(start, end int) error { return want }); !errors.Is(err, want) {
		t.Fatalf("inline err = %v, want %v", err, want)
	}
}

// --- parallel pipeline equivalence ----------------------------------------

// loadWide inserts `rows` multi-column rows in batches so both the encode and
// reconstruct paths run above the parallel threshold.
func loadWide(t testing.TB, f *fleet, rows int) {
	t.Helper()
	f.mustExec(t, `CREATE TABLE wide (name VARCHAR(8), v INT, w INT)`)
	const batch = 200
	for base := 0; base < rows; base += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO wide VALUES ")
		for i := base; i < base+batch && i < rows; i++ {
			if i > base {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "('n%06d', %d, %d)", i, i%997, 1000000+i)
		}
		f.mustExec(t, sb.String())
	}
}

// The parallel reconstruct/encode path must return byte-identical results to
// the serial path (ParallelWorkers: 1), in both unverified and verified modes.
func TestParallelMatchesSerialResults(t *testing.T) {
	const rows = 1200
	for _, verified := range []bool{false, true} {
		name := "unverified"
		if verified {
			name = "verified"
		}
		t.Run(name, func(t *testing.T) {
			serial := newFleet(t, 3, 2, Options{Verified: verified, ParallelWorkers: 1})
			parallel := newFleet(t, 3, 2, Options{Verified: verified, ParallelWorkers: 8})
			loadWide(t, serial, rows)
			loadWide(t, parallel, rows)
			for _, q := range []string{
				`SELECT * FROM wide`,
				`SELECT name, w FROM wide WHERE v BETWEEN 100 AND 500`,
				`SELECT SUM(v) FROM wide`,
			} {
				a := rowsAsStrings(serial.mustExec(t, q))
				b := rowsAsStrings(parallel.mustExec(t, q))
				sort.Strings(a)
				sort.Strings(b)
				if len(a) != len(b) {
					t.Fatalf("%s: serial %d rows, parallel %d rows", q, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s: row %d differs: serial %q parallel %q", q, i, a[i], b[i])
					}
				}
			}
		})
	}
}

func TestParallelWorkersValidation(t *testing.T) {
	f := newFleet(t, 3, 2, Options{}) // default: GOMAXPROCS
	if f.client.opts.ParallelWorkers < 1 {
		t.Fatalf("default ParallelWorkers = %d, want >= 1", f.client.opts.ParallelWorkers)
	}
	conn := transport.NewLocal(transport.HandlerFunc(func(m proto.Message) proto.Message {
		return &proto.OKResponse{}
	}))
	if _, err := New([]transport.Conn{conn}, Options{K: 1, MasterKey: []byte("k"), ParallelWorkers: -1}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("negative ParallelWorkers: %v", err)
	}
}

// --- failover marking race (regression) -----------------------------------

// Concurrent reads race on the provider records: every quorum call reads
// them to order providers and every finished call is judged into one.
// Without the record's mutex this is a data race under -race once SELECTs
// run in parallel. Providers 0 and 1 stay up throughout, so every read must succeed
// even while provider 2 flaps.
func TestFailoverMarkingUnderConcurrentReads(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)

	const readers = 8
	var readerWG, flapperWG sync.WaitGroup
	errs := make(chan error, readers)
	stop := make(chan struct{})

	flapperWG.Add(1)
	go func() { // flapper: provider 2 crashes and recovers continuously
		defer flapperWG.Done()
		for {
			select {
			case <-stop:
				f.faults[2].Recover()
				return
			default:
				f.faults[2].Crash()
				f.faults[2].Recover()
			}
		}
	}()
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for i := 0; i < 50; i++ {
				res, err := f.client.Exec(`SELECT name, salary FROM employees WHERE salary BETWEEN 10 AND 80`)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 6 {
					errs <- fmt.Errorf("got %d rows, want 6", len(res.Rows))
					return
				}
			}
		}()
	}
	readerWG.Wait()
	close(stop)
	flapperWG.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("reader failed: %v", err)
	}
}

// --- mixed-workload torn-read check ---------------------------------------

// Concurrent SELECT/INSERT/UPDATE through Exec must never expose torn rows:
// every row of acct maintains a + b == 1000 under full-row updates, so a
// reader observing a sum != 1000 saw a half-applied write.
func TestConcurrentNoTornReads(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE acct (id INT, a INT, b INT)`)
	for i := 0; i < 8; i++ {
		f.mustExec(t, fmt.Sprintf(`INSERT INTO acct VALUES (%d, %d, %d)`, i, i, 1000-i))
	}

	const (
		writers    = 2
		readers    = 4
		writerIter = 30
		readerIter = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers+1)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writerIter; i++ {
				x := (w*writerIter + i) % 500
				q := fmt.Sprintf(`UPDATE acct SET a = %d, b = %d WHERE id = %d`, x, 1000-x, w)
				if _, err := f.client.Exec(q); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // inserter: new rows also satisfy the invariant
		defer wg.Done()
		for i := 0; i < writerIter; i++ {
			x := 500 + i
			q := fmt.Sprintf(`INSERT INTO acct VALUES (%d, %d, %d)`, 100+i, x, 1000-x)
			if _, err := f.client.Exec(q); err != nil {
				errs <- fmt.Errorf("inserter: %w", err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < readerIter; i++ {
				res, err := f.client.Exec(`SELECT a, b FROM acct`)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if len(res.Rows) < 8 {
					errs <- fmt.Errorf("reader %d: table shrank to %d rows", r, len(res.Rows))
					return
				}
				for _, row := range res.Rows {
					if sum := row[0].I + row[1].I; sum != 1000 {
						errs <- fmt.Errorf("reader %d: torn row a=%d b=%d", r, row[0].I, row[1].I)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Lazy-update mode buffers UPDATEs client side; concurrent readers and Flush
// calls must still observe whole rows (reads escalate to the exclusive lock
// while updates are pending, so overlays are never half-applied).
func TestConcurrentLazyUpdateFlush(t *testing.T) {
	f := newFleet(t, 3, 2, Options{LazyUpdates: true})
	f.mustExec(t, `CREATE TABLE acct (id INT, a INT, b INT)`)
	for i := 0; i < 4; i++ {
		f.mustExec(t, fmt.Sprintf(`INSERT INTO acct VALUES (%d, %d, %d)`, i, i, 1000-i))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := 0; i < 25; i++ {
			x := i * 7 % 500
			q := fmt.Sprintf(`UPDATE acct SET a = %d, b = %d WHERE id = %d`, x, 1000-x, i%4)
			if _, err := f.client.Exec(q); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // flusher
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if err := f.client.Flush(); err != nil {
				errs <- fmt.Errorf("flush: %w", err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				res, err := f.client.Exec(`SELECT a, b FROM acct`)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if len(res.Rows) != 4 {
					errs <- fmt.Errorf("reader %d: got %d rows, want 4", r, len(res.Rows))
					return
				}
				for _, row := range res.Rows {
					if sum := row[0].I + row[1].I; sum != 1000 {
						errs <- fmt.Errorf("reader %d: torn row a=%d b=%d", r, row[0].I, row[1].I)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	// Drain pending updates so the fleet closes clean.
	if err := f.client.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
