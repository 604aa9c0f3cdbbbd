package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Segmented is an append-only log split into sealed segment files plus one
// active segment, with LSN-aware truncation: every record carries a log
// sequence number (1-based, monotonic across segments), a segment file is
// named by the LSN of its first record, and TruncateThrough deletes whole
// sealed segments once a checkpoint covers them. This is what lets the
// store's incremental checkpoints drop the replayed prefix without
// rewriting the live tail.
//
// Append/Sync keep the group-commit behaviour of Log: appends are ordered,
// one fsync acknowledges every record appended before it ran. Rotate seals
// the active segment (flush + fsync) so its records are durable before a
// checkpoint manifest claims to cover them.
type Segmented struct {
	mu       sync.Mutex
	dir      string
	prefix   string
	cur      *Log
	curFirst uint64 // LSN the active segment's first record has (or will have)
	lsn      uint64 // last appended LSN
	sealed   []sealedSegment

	// fsync stats of segments already retired by TruncateThrough, folded
	// in so SyncStats stays cumulative across the log's whole life.
	retiredFsyncs     uint64
	retiredFsyncNanos uint64
	retiredFsyncMax   uint64
}

type sealedSegment struct {
	log   *Log
	path  string
	first uint64
	last  uint64
}

func segmentPath(dir, prefix string, firstLSN uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.%016x", prefix, firstLSN))
}

// listSegments returns the existing segment files for prefix, each with the
// first LSN its name gives, in first-LSN order. Directory order is name
// order, which matches LSN order only for the zero-padded names segmentPath
// writes, so the (path, LSN) pairs are sorted as one.
func listSegments(dir, prefix string) ([]sealedSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []sealedSegment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix+".") {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimPrefix(name, prefix+"."), 16, 64)
		if err != nil {
			continue // not a segment file
		}
		segs = append(segs, sealedSegment{path: filepath.Join(dir, name), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// OpenSegments replays every record with LSN > fromLSN across the segment
// files under dir, then opens a fresh active segment after the last record
// and returns the log ready for appending. Records at or below fromLSN are
// walked (to find frame boundaries) but not delivered. A torn tail is
// tolerated only in the final segment; an earlier tear means records were
// lost in the middle of the sequence and is reported as corruption.
// The returned replayed count is the number of records delivered to fn.
func OpenSegments(dir, prefix string, fromLSN uint64, fn func(lsn uint64, rec []byte) error) (*Segmented, uint64, error) {
	segs, err := listSegments(dir, prefix)
	if err != nil {
		return nil, 0, err
	}
	s := &Segmented{dir: dir, prefix: prefix}
	var replayed uint64
	last := fromLSN
	for i, seg := range segs {
		lsn := seg.first - 1
		_, _, err := scan(seg.path, func(rec []byte) error {
			lsn++
			if lsn <= fromLSN {
				return nil
			}
			if fn != nil {
				if err := fn(lsn, rec); err != nil {
					return err
				}
			}
			replayed++
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		if i < len(segs)-1 && lsn+1 < segs[i+1].first {
			// Records between this segment's valid tail and the next
			// segment's first LSN are gone: a mid-sequence tear.
			if lsn >= fromLSN {
				return nil, 0, fmt.Errorf("%w: segment %s torn before %s", ErrCorrupt, seg.path, segs[i+1].path)
			}
		}
		if lsn > last {
			last = lsn
		}
		seg.last = lsn
		s.sealed = append(s.sealed, seg)
	}
	s.lsn = last
	s.curFirst = last + 1
	cur, err := Open(segmentPath(dir, prefix, s.curFirst))
	if err != nil {
		return nil, 0, err
	}
	s.cur = cur
	return s, replayed, nil
}

// Append writes one record to the active segment and returns its LSN. Like
// Log.Append the data is buffered; call Sync to make it durable.
func (s *Segmented) Append(record []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.cur.Append(record); err != nil {
		return 0, err
	}
	s.lsn++
	return s.lsn, nil
}

// LSN returns the LSN of the last appended record (0 if none ever).
func (s *Segmented) LSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lsn
}

// Sync makes every record appended before the call durable. Records in
// sealed segments were fsynced at Rotate, so only the active segment is
// flushed; concurrent callers group-commit exactly as on Log.
func (s *Segmented) Sync() error {
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	return cur.Sync()
}

// SyncStats reports cumulative group-commit fsync count, total nanoseconds,
// and the single slowest fsync across every segment this log has owned.
func (s *Segmented) SyncStats() (count, nanos, max uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	count, nanos, max = s.retiredFsyncs, s.retiredFsyncNanos, s.retiredFsyncMax
	logs := make([]*Log, 0, len(s.sealed)+1)
	logs = append(logs, s.cur)
	for _, seg := range s.sealed {
		if seg.log != nil {
			logs = append(logs, seg.log)
		}
	}
	for _, l := range logs {
		c, n, m := l.SyncStats()
		count += c
		nanos += n
		if m > max {
			max = m
		}
	}
	return count, nanos, max
}

// Rotate seals the active segment — flushing and fsyncing it, so every
// record up to LSN() is durable — and starts a new one. An empty active
// segment is left in place. The sealed file stays open (and replayable)
// until TruncateThrough retires it.
func (s *Segmented) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lsn < s.curFirst {
		return nil // nothing appended since the last rotation
	}
	if err := s.cur.Sync(); err != nil {
		return err
	}
	s.sealed = append(s.sealed, sealedSegment{
		log:   s.cur,
		path:  segmentPath(s.dir, s.prefix, s.curFirst),
		first: s.curFirst,
		last:  s.lsn,
	})
	next := s.lsn + 1
	cur, err := Open(segmentPath(s.dir, s.prefix, next))
	if err != nil {
		return err
	}
	s.cur = cur
	s.curFirst = next
	return nil
}

// TruncateThrough deletes sealed segments whose records are all covered by
// lsn (i.e. last record LSN <= lsn). The active segment is never touched.
func (s *Segmented) TruncateThrough(lsn uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.sealed[:0]
	var firstErr error
	for _, seg := range s.sealed {
		if seg.last > lsn {
			kept = append(kept, seg)
			continue
		}
		if seg.log != nil {
			c, n, m := seg.log.SyncStats()
			s.retiredFsyncs += c
			s.retiredFsyncNanos += n
			if m > s.retiredFsyncMax {
				s.retiredFsyncMax = m
			}
			if err := seg.log.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}
	s.sealed = kept
	return firstErr
}

// Close flushes and closes the active segment and any sealed segments still
// open.
func (s *Segmented) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.cur.Close()
	for _, seg := range s.sealed {
		if seg.log != nil {
			if e := seg.log.Close(); e != nil && err == nil {
				err = e
			}
		}
	}
	s.sealed = nil
	return err
}
