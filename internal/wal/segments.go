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

// Segmented is an append-only log split into segment files, with LSN-aware
// truncation: every record carries a log sequence number (1-based,
// monotonic across segments), a segment file is named by the LSN of its
// first record, and TruncateThrough deletes whole segments once a
// checkpoint covers them. This is what lets the store's incremental
// checkpoints drop the replayed prefix without rewriting the live tail.
//
// The file names in the directory are the only record of the segments. The
// newest segment is the active one, being written, and the only open file;
// every older one is sealed: complete, fsynced and closed.
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

	// fsync stats of the segments Rotate sealed and closed, folded in so
	// SyncStats stays cumulative across the log's whole life.
	sealedFsyncs     uint64
	sealedFsyncNanos uint64
	sealedFsyncMax   uint64
}

type segment struct {
	path  string
	first uint64
}

func segmentPath(dir, prefix string, firstLSN uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.%016x", prefix, firstLSN))
}

// listSegments returns the existing segment files for prefix, each with the
// first LSN its name gives, in first-LSN order. Directory order is name
// order, which matches LSN order only for the zero-padded names segmentPath
// writes, so the (path, LSN) pairs are sorted as one. A name giving LSN 0,
// an LSN no record count can follow without overflow, or the LSN of
// another segment is ErrCorrupt.
func listSegments(dir, prefix string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix+".") {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimPrefix(name, prefix+"."), 16, 64)
		if err != nil {
			continue // not a segment file
		}
		if first == 0 || first >= 1<<63 {
			return nil, fmt.Errorf("%w: segment %s names LSN %d", ErrCorrupt, name, first)
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	for i := 1; i < len(segs); i++ {
		if segs[i].first == segs[i-1].first {
			return nil, fmt.Errorf("%w: segments %s and %s both start at LSN %d", ErrCorrupt, segs[i-1].path, segs[i].path, segs[i].first)
		}
	}
	return segs, nil
}

// OpenSegments replays every record with LSN > fromLSN across the segment
// files under dir, reading each file once, and returns the log ready for
// appending: the newest segment reopened when its next LSN is the log's
// next LSN, a fresh one otherwise. Records at or below fromLSN are walked
// (to find frame boundaries) but not delivered. A torn tail is tolerated
// only in the newest segment: records missing between two segments, or
// claimed by two, above fromLSN are reported as corruption.
// The returned replayed count is the number of records delivered to fn.
func OpenSegments(dir, prefix string, fromLSN uint64, fn func(lsn uint64, rec []byte) error) (*Segmented, uint64, error) {
	segs, err := listSegments(dir, prefix)
	if err != nil {
		return nil, 0, err
	}
	var replayed, lsn uint64 // lsn: the last record read
	deliver := func(rec []byte) error {
		lsn++
		if lsn <= fromLSN {
			return nil
		}
		replayed++
		if fn == nil {
			return nil
		}
		return fn(lsn, rec)
	}
	s := &Segmented{dir: dir, prefix: prefix}
	for i, seg := range segs {
		if i > 0 && (seg.first <= lsn && lsn > fromLSN || seg.first > max(lsn, fromLSN)+1) {
			return nil, 0, fmt.Errorf("%w: segment %s does not follow LSN %d", ErrCorrupt, seg.path, lsn)
		}
		lsn = seg.first - 1
		if i < len(segs)-1 {
			err = readSegment(seg.path, deliver)
		} else {
			s.cur, err = Open(seg.path, deliver)
			s.curFirst = seg.first
		}
		if err != nil {
			return nil, 0, err
		}
	}
	s.lsn = max(lsn, fromLSN)
	if s.cur == nil || lsn < fromLSN {
		// No segment yet, or the newest ends below the checkpoint: the next
		// record starts a segment of its own.
		if s.cur != nil {
			s.cur.Close()
		}
		s.curFirst = s.lsn + 1
		if s.cur, err = s.create(s.curFirst); err != nil {
			return nil, 0, err
		}
	}
	return s, replayed, nil
}

// create starts the segment whose first record will have LSN first, and
// syncs the directory: records acknowledged later are durable only if the
// file's name is too. On failure no new segment file is left behind, since
// the active segment goes on taking the LSNs its name would claim.
func (s *Segmented) create(first uint64) (*Log, error) {
	path := segmentPath(s.dir, s.prefix, first)
	l, err := Open(path, nil)
	if err != nil {
		return nil, err
	}
	if err := SyncDir(s.dir); err != nil {
		l.Close()
		os.Remove(path)
		return nil, err
	}
	return l, nil
}

// readSegment hands every valid record of a sealed segment to fn.
func readSegment(path string, fn func([]byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = scan(f, fn)
	return err
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
// flushed; concurrent callers group-commit exactly as on Log. A caller
// holding a segment Rotate has since sealed finds its records covered by
// the sealing fsync and returns without touching the closed file.
func (s *Segmented) Sync() error {
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	return cur.Sync()
}

// SyncStats reports cumulative group-commit fsync count, total nanoseconds,
// and the single slowest fsync across every segment this log has written.
func (s *Segmented) SyncStats() (count, nanos, max uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	count, nanos, max = s.cur.SyncStats()
	if s.sealedFsyncMax > max {
		max = s.sealedFsyncMax
	}
	return count + s.sealedFsyncs, nanos + s.sealedFsyncNanos, max
}

// Rotate seals the active segment — flushing and fsyncing it, so every
// record up to LSN() is durable — closes it, and starts a new one, its
// name synced into the directory. An empty active segment is left in
// place.
func (s *Segmented) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lsn < s.curFirst {
		return nil // nothing appended since the last rotation
	}
	if err := s.cur.Sync(); err != nil {
		return err
	}
	next, err := s.create(s.lsn + 1)
	if err != nil {
		return err
	}
	sealed := s.cur
	s.cur, s.curFirst = next, s.lsn+1
	err = sealed.Close()
	c, n, m := sealed.SyncStats()
	s.sealedFsyncs += c
	s.sealedFsyncNanos += n
	s.sealedFsyncMax = max(s.sealedFsyncMax, m)
	return err
}

// TruncateThrough deletes, oldest first, every segment other than the
// newest whose successor starts at or below lsn+1 — every segment whose
// records are all covered by lsn. It reads only the names in the
// directory: the newest one, the active segment, is never deleted.
func (s *Segmented) TruncateThrough(lsn uint64) error {
	segs, err := listSegments(s.dir, s.prefix)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs) && segs[i+1].first <= lsn+1; i++ {
		if err := os.Remove(segs[i].path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// Close flushes and closes the active segment.
func (s *Segmented) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.Close()
}
