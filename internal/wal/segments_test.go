package wal

import (
	"fmt"
	"path/filepath"
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
		l, err := Open(filepath.Join(dir, name))
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
