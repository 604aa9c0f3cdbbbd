// Package wal provides a CRC-framed append-only write-ahead log and
// atomic snapshot files, the durability substrate of a provider's store.
//
// Record framing on disk:
//
//	+----------------+----------------+------------------+
//	| length  uint32 | crc32c  uint32 | payload (length) |
//	+----------------+----------------+------------------+
//
// Open replays a file's records while it scans for their valid prefix. It
// stops cleanly at the first torn record (the common crash shape for an
// append-only file) and truncates the tail there.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record whose checksum failed mid-file (not at the
// tail), indicating damage rather than a torn append.
var ErrCorrupt = errors.New("wal: corrupt record")

// maxRecordSize bounds a single record; larger writes indicate a bug.
const maxRecordSize = 64 << 20

// Log is an append-only record log, safe for concurrent use. Appends are
// ordered by mu; Sync group-commits: one fsync covers every record appended
// before it ran, so concurrent committers amortize the disk flush instead
// of queueing one fsync each.
type Log struct {
	// mu guards appends (f/bw writes) and seq.
	mu  sync.Mutex
	f   *os.File
	bw  *bufio.Writer
	seq uint64 // records appended

	// syncMu serializes fsyncs and guards synced.
	syncMu sync.Mutex
	synced uint64 // highest seq known to be on stable storage

	// fsync timing, readable without locks (SyncStats): the serving layer
	// reports fsync lag on every ping so a slow disk is visible before it
	// becomes a latency incident.
	fsyncs     atomic.Uint64
	fsyncNanos atomic.Uint64
	fsyncMax   atomic.Uint64
}

// Open opens (creating if needed) the log at path for appending. It reads
// the file once: fn, if not nil, gets every valid record in append order,
// each its own slice that fn may keep, and any torn tail from a previous
// crash is truncated away after the last one. Corruption before the tail
// returns ErrCorrupt; an error from fn is returned as is, with the file
// left untouched.
func Open(path string, fn func(record []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	valid, err := scan(f, fn)
	if err == nil {
		if err = f.Truncate(valid); err != nil {
			err = fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	if err == nil {
		_, err = f.Seek(valid, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, bw: bufio.NewWriterSize(f, 64<<10)}, nil
}

// Append writes one record. The data is buffered; call Sync to force it to
// stable storage.
func (l *Log) Append(record []byte) error {
	if len(record) > maxRecordSize {
		return fmt.Errorf("wal: record of %d bytes exceeds limit", len(record))
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(record)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(record, crcTable))
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := l.bw.Write(record); err != nil {
		return err
	}
	l.seq++
	return nil
}

// Sync makes every record appended before the call durable. Concurrent
// callers group-commit: whoever reaches the disk fsyncs everything appended
// so far, and callers whose records are already covered by a completed
// fsync return without touching the disk at all.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.seq
	l.mu.Unlock()

	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced >= target {
		return nil
	}
	l.mu.Lock()
	err := l.bw.Flush()
	// The fsync below covers every record flushed, not just the caller's
	// snapshot: record the true high-water mark so committers that appended
	// while we held syncMu return without a disk touch of their own.
	covered := l.seq
	l.mu.Unlock()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.observeFsync(time.Since(start))
	if l.synced < covered {
		l.synced = covered
	}
	return nil
}

// observeFsync records one fsync's wall time.
func (l *Log) observeFsync(d time.Duration) {
	ns := uint64(d)
	l.fsyncs.Add(1)
	l.fsyncNanos.Add(ns)
	for {
		cur := l.fsyncMax.Load()
		if ns <= cur || l.fsyncMax.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// SyncStats reports how many fsyncs ran — group commits and resets — and
// their total and maximum wall time in nanoseconds.
func (l *Log) SyncStats() (count, nanos, max uint64) {
	return l.fsyncs.Load(), l.fsyncNanos.Load(), l.fsyncMax.Load()
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.bw.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Reset truncates the log to empty (after a successful snapshot). Records
// still in flight toward an in-progress Sync are covered by the snapshot
// the caller just wrote, so their Sync degenerates to a no-op.
func (l *Log) Reset() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bw.Reset(l.f)
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.observeFsync(time.Since(start))
	l.synced = l.seq
	return nil
}

// scan walks the records of f from its start, handing each to fn (if not
// nil), and returns the byte offset of the end of the last valid record. A
// torn tail ends the walk cleanly; corruption before the tail returns
// ErrCorrupt.
func scan(f *os.File, fn func([]byte) error) (validBytes int64, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := st.Size()
	br := bufio.NewReaderSize(f, 64<<10)
	var offset int64
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// Clean EOF or torn header: stop at the last valid offset.
			return offset, nil
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if int64(length) > maxRecordSize || offset+8+int64(length) > size {
			// Torn or absurd tail.
			return offset, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			return offset, nil
		}
		if crc32.Checksum(payload, crcTable) != want {
			if offset+8+int64(length) == size {
				// Torn final record.
				return offset, nil
			}
			return offset, fmt.Errorf("%w at offset %d", ErrCorrupt, offset)
		}
		offset += 8 + int64(length)
		if fn != nil {
			if err := fn(payload); err != nil {
				return offset, err
			}
		}
	}
}

// SaveSnapshot writes data atomically to path via a temp file + rename, so
// a crash never leaves a half-written snapshot visible.
func SaveSnapshot(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return fmt.Errorf("wal: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(data, crcTable))
	if _, err := tmp.Write(sum[:]); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmpName, path)
}

// SyncDir fsyncs the directory dir, so that the files created, renamed or
// removed in it so far stay that way through a power loss: fsyncing a file
// makes its bytes durable, not its name.
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadSnapshot reads a snapshot written by SaveSnapshot, verifying its
// checksum. A missing file returns (nil, nil).
func LoadSnapshot(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(raw) < 4 {
		return nil, fmt.Errorf("%w: snapshot too short", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(raw[:4])
	data := raw[4:]
	if crc32.Checksum(data, crcTable) != want {
		return nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	return data, nil
}
