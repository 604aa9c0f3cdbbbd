package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Segment names that are not zero-padded list in a different order from
// their LSNs (p.10 before p.8 before p.9): replay must still pair every file
// with the first LSN its own name gives, and deliver records in LSN order.
func TestListSegmentsPairsPathsWithLSNs(t *testing.T) {
	dir := t.TempDir()
	// The hex names give first LSNs 8, 9 and 16; p.9 holds 9..15.
	counts := map[string]int{"p.10": 1, "p.8": 1, "p.9": 7}
	for name, n := range counts {
		l, err := Open(filepath.Join(dir, name), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := l.Append([]byte(fmt.Sprintf("%s/%d", name, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	s, replayed, err := OpenSegments(dir, "p", 0, func(lsn uint64, rec []byte) error {
		got = append(got, fmt.Sprintf("%d=%s", lsn, rec))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := []string{"8=p.8/0"}
	for i := 0; i < 7; i++ {
		want = append(want, fmt.Sprintf("%d=p.9/%d", 9+i, i))
	}
	want = append(want, "16=p.10/0")
	if fmt.Sprint(got) != fmt.Sprint(want) || replayed != uint64(len(want)) {
		t.Fatalf("replayed %d records %v, want %v", replayed, got, want)
	}
	if s.LSN() != 16 {
		t.Fatalf("LSN after replay = %d, want 16", s.LSN())
	}
}

// A log reopened over an empty newest segment — what Rotate leaves behind at
// a checkpoint — appends to that segment, so truncating through the
// checkpoint must keep it: every acknowledged record comes back on the next
// open.
func TestTruncateKeepsReopenedActiveSegment(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenSegments(dir, "p", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"a", "b"} {
		if _, err := s.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint through LSN 2, then a clean shutdown.
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateThrough(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen, checkpoint again before the first write, write, checkpoint's
	// truncation.
	s, _, err = OpenSegments(dir, "p", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"c", "d", "e"} {
		if _, err := s.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.TruncateThrough(2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segmentPath(dir, "p", 3)); err != nil {
		t.Fatalf("the active segment is gone: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	s, _, err = OpenSegments(dir, "p", 2, func(lsn uint64, rec []byte) error {
		got = append(got, fmt.Sprintf("%d=%s", lsn, rec))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if want := "[3=c 4=d 5=e]"; fmt.Sprint(got) != want {
		t.Fatalf("reopen replayed %v, want %s", got, want)
	}
}

// FuzzOpenSegments splits data into one to three segment files as layout
// says — "name:bytes" for each, the last taking the rest — and opens them
// from a checkpoint at from. The checked-in corpus holds an empty newest
// segment, a torn tail, a tear mid-sequence, names out of LSN order, and
// names that overlap, repeat or give LSN 0. OpenSegments must never panic:
// it fails with ErrCorrupt, or replays consecutive LSNs above from. After
// one more record and a truncation through from, a reopen replays the same
// records plus the new one.
func FuzzOpenSegments(f *testing.F) {
	hexName := regexp.MustCompile(`^[0-9a-fA-F]{1,16}$`)
	f.Fuzz(func(t *testing.T, from uint8, layout string, data []byte) {
		parts := strings.Split(layout, ",")
		if len(parts) > 3 {
			return
		}
		dir := t.TempDir()
		for i, part := range parts {
			name, size, _ := strings.Cut(part, ":")
			if !hexName.MatchString(name) {
				return
			}
			n, err := strconv.Atoi(size)
			if err != nil || n < 0 || n > len(data) || i == len(parts)-1 {
				n = len(data)
			}
			if err := os.WriteFile(filepath.Join(dir, "p."+name), data[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			data = data[n:]
		}
		var got []string
		lsn := uint64(from)
		replay := func(at uint64, rec []byte) error {
			if at != lsn+1 && (len(got) > 0 || at <= lsn) {
				t.Fatalf("replayed LSN %d after %d (checkpoint %d)", at, lsn, from)
			}
			lsn = at
			got = append(got, fmt.Sprintf("%d=%x", at, rec))
			return nil
		}
		s, replayed, err := OpenSegments(dir, "p", uint64(from), replay)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenSegments: %v, want ErrCorrupt", err)
			}
			return
		}
		if replayed != uint64(len(got)) || s.LSN() < lsn || len(got) > 0 && s.LSN() != lsn {
			t.Fatalf("replayed %d of %d records, LSN %d after %d", replayed, len(got), s.LSN(), lsn)
		}
		at, err := s.Append([]byte("new"))
		if err == nil {
			err = s.Sync()
		}
		if err == nil {
			err = s.TruncateThrough(uint64(from))
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(append(got, fmt.Sprintf("%d=%x", at, "new")))
		got, lsn = nil, uint64(from)
		if s, _, err = OpenSegments(dir, "p", uint64(from), replay); err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s.Close()
		if fmt.Sprint(got) != want {
			t.Fatalf("reopen replayed %v, want %v", got, want)
		}
	})
}

// Writers that append and sync while checkpoints rotate and truncate the
// log may hold a segment Rotate has sealed and closed: their Sync must
// succeed without touching it, and every acknowledged record must replay.
func TestRotateUnderConcurrentSync(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenSegments(dir, "p", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Append([]byte("r")); err != nil {
					errs <- err
					return
				}
				if err := s.Sync(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := s.Rotate(); err != nil {
				errs <- err
				return
			}
			if err := s.TruncateThrough(s.LSN() / 2); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var last uint64
	s, _, err = OpenSegments(dir, "p", 0, func(lsn uint64, _ []byte) error {
		last = lsn
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if last != writers*each || s.LSN() != writers*each {
		t.Fatalf("reopen ends at LSN %d (log LSN %d), want %d", last, s.LSN(), writers*each)
	}
}
