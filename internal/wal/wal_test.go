package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		rec := []byte(fmt.Sprintf("record-%d", i))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	if err := replay(path, func(r []byte) error {
		got = append(got, append([]byte(nil), r...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReplayMissingFile(t *testing.T) {
	if err := replay(filepath.Join(t.TempDir(), "nope.wal"), func([]byte) error {
		t.Fatal("callback invoked")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := replay(path, func(r []byte) error {
		if len(r) != 0 {
			t.Fatalf("record has %d bytes", len(r))
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("replayed %d records", count)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(make([]byte, maxRecordSize+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestTornTailIsTruncatedOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: write a partial frame at the end.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x05, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reopening replays only the 10 complete records, truncates the torn
	// tail, and new appends land cleanly.
	count := 0
	l, err = Open(path, func([]byte) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("replayed %d records, want 10", count)
	}
	if err := l.Append([]byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var last []byte
	count = 0
	if err := replay(path, func(r []byte) error {
		count++
		last = append(last[:0], r...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 11 || string(last) != "after-crash" {
		t.Fatalf("count=%d last=%q", count, last)
	}
}

func TestTornFinalRecordBadCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("soon-corrupt")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the last payload byte (checksum now fails on the final record).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := replay(path, func([]byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("replayed %d records, want 1 (torn final record skipped)", count)
	}
}

func TestMidFileCorruptionIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-number-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the FIRST record (offset 8 is its payload).
	raw[9] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = replay(path, func([]byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestReplayCallbackError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	boom := errors.New("boom")
	count := 0
	err = replay(path, func([]byte) error {
		count++
		if count == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || count != 2 {
		t.Fatalf("err=%v count=%d", err, count)
	}
	// A failed replay leaves the file as it found it.
	if fi, err := os.Stat(path); err != nil || fi.Size() != 3*(8+1) {
		t.Fatalf("log after a failed replay: %v, %v", fi, err)
	}
}

func TestReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []string
	if err := replay(path, func(r []byte) error {
		recs = append(recs, string(r))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0] != "new" {
		t.Fatalf("records after reset: %v", recs)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	data := []byte("snapshot contents with some length")
	if err := SaveSnapshot(path, data); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	// Overwrite is atomic and replaces contents.
	if err := SaveSnapshot(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err = LoadSnapshot(path)
	if err != nil || string(got) != "v2" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestSnapshotMissing(t *testing.T) {
	got, err := LoadSnapshot(filepath.Join(t.TempDir(), "none"))
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestSnapshotCorruptDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	if err := SaveSnapshot(path, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if err := os.WriteFile(path, []byte{1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short snapshot: got %v, want ErrCorrupt", err)
	}
}

func TestOpenErrorPaths(t *testing.T) {
	// Path is a directory: open must fail cleanly.
	dir := t.TempDir()
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("Open on a directory succeeded")
	}
	// Parent directory missing.
	if _, err := Open(filepath.Join(dir, "missing", "x.wal"), nil); err == nil {
		t.Fatal("Open under a missing directory succeeded")
	}
}

func TestSaveSnapshotErrorPaths(t *testing.T) {
	dir := t.TempDir()
	if err := SaveSnapshot(filepath.Join(dir, "missing", "snap"), []byte("x")); err == nil {
		t.Fatal("SaveSnapshot under a missing directory succeeded")
	}
	// LoadSnapshot on a directory fails.
	if _, err := LoadSnapshot(dir); err == nil {
		t.Fatal("LoadSnapshot on a directory succeeded")
	}
}

func TestSyncDir(t *testing.T) {
	dir := t.TempDir()
	if err := SyncDir(dir); err != nil {
		t.Fatalf("syncing a directory: %v", err)
	}
	if err := SyncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("SyncDir of a missing directory succeeded")
	}
}

func TestScanOnCorruptMidFileViaOpen(t *testing.T) {
	// Open must refuse a log with mid-file corruption rather than silently
	// truncating valid data after the damage.
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("record-payload-data")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 0xff // first record payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt log: %v", err)
	}
}

func BenchmarkAppend128B(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	l, err := Open(path, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := make([]byte, 128)
	b.SetBytes(int64(len(rec)) + 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// replay reads every record of the log at path through Open, then closes it.
func replay(path string, fn func([]byte) error) error {
	l, err := Open(path, fn)
	if err != nil {
		return err
	}
	return l.Close()
}
