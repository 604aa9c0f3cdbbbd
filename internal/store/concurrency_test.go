package store

import (
	"fmt"
	"sync"
	"testing"

	"sssdb/internal/merkle"
	"sssdb/internal/proto"
)

// The store is accessed concurrently by the transport layer; its internal
// mutex must keep scans consistent while mutations run.
func TestConcurrentScanAndMutate(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	// Seed a stable region the readers assert on.
	for i := uint64(1); i <= 100; i++ {
		if err := s.Insert("employees", []proto.Row{row(i, i)}); err != nil {
			t.Fatal(err)
		}
	}
	stableFilter := &proto.Filter{
		Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(1), Hi: oppCell(100),
	}
	var writers, readers sync.WaitGroup
	errs := make(chan error, 8)
	stop := make(chan struct{})

	// Writers churn rows above the stable region.
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			base := uint64(1000 + w*10_000)
			for i := uint64(0); i < 300; i++ {
				id := base + i
				if err := s.Insert("employees", []proto.Row{row(id, 500+id)}); err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					if _, err := s.Delete("employees", []uint64{id}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	// Readers keep scanning the stable region until writers finish.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := s.Scan("employees", stableFilter, nil, 0, false)
				if err != nil {
					errs <- err
					return
				}
				if len(resp.Rows) != 100 {
					errs <- fmt.Errorf("stable region scan saw %d rows", len(resp.Rows))
					return
				}
				if _, err := s.Aggregate(&proto.AggregateRequest{Table: "employees", Op: proto.AggCount, Filter: stableFilter}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Proof-carrying scans exercise the Merkle cache invalidation path while
	// mutations keep invalidating it.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := proofRoot(s); err != nil {
				errs <- err
				return
			}
		}
	}()

	writers.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// WAL-backed stores must serialize mutations correctly under concurrency.
func TestConcurrentDurableMutations(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := uint64(w*1000 + i + 1)
				if err := s.Insert("employees", []proto.Row{row(id, id)}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n, err := s2.RowCount("employees")
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("rows after recovery = %d, want 200", n)
	}
}

// Readers share the store lock; the Merkle cache is built lazily by
// whichever reader arrives first. Racing proof-carrying scans on a cold
// cache must all be cut under the same root.
func TestConcurrentDigestColdCache(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	for i := uint64(1); i <= 500; i++ {
		if err := s.Insert("employees", []proto.Row{row(i, i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Invalidate by mutating, then race cold-cache digests.
	for round := 0; round < 5; round++ {
		if err := s.Insert("employees", []proto.Row{row(10_000+uint64(round), 1)}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		roots := make([]merkle.Hash, 8)
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				root, _, err := proofRoot(s)
				if err != nil {
					errs <- err
					return
				}
				roots[g] = root
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for g := 1; g < 8; g++ {
			if roots[g] != roots[0] {
				t.Fatalf("round %d: root %d = %x, root 0 = %x", round, g, roots[g], roots[0])
			}
		}
	}
}
