package store

import (
	"sort"
	"sync/atomic"
	"time"

	"sssdb/internal/wal"
)

// DefaultCheckpointInterval is the cadence of the background checkpoint
// worker when Options.CheckpointInterval is zero.
const DefaultCheckpointInterval = 5 * time.Second

// flushItem is one dirty page captured by a checkpoint: either a resident
// page object to write to a new epoch file, or (pg nil) a promotion of the
// page's newest existing epoch file — a dirty page that was evicted already
// has a complete write-back on disk, so the checkpoint only has to
// reference it.
type flushItem struct {
	pm    *pageMeta
	pg    *page
	epoch uint64 // file the manifest will reference
	path  string
	// oldEpoch/version record the page's state at capture so phase 3 can
	// tell whether the page was mutated or evicted while the checkpoint ran.
	oldEpoch uint64
	version  uint64
}

// Checkpoint makes the store durable incrementally: every page dirtied
// since the last checkpoint is written to its own epoch file (or its
// existing write-back file is promoted), a small manifest is atomically
// swapped in, and the WAL is truncated through the captured LSN. Work
// scales with the dirty set, not the table size.
//
// The protocol has three phases. Phase 1 (exclusive store lock): rotate the
// WAL — sealing the active segment so every captured record is durable —
// capture the LSN and each resident dirty page object (pageMeta.ckpt: a
// mutation copies a captured page rather than change it, see
// pageCache.writable), and build the manifest image. Phase 2 (no store
// lock): encode the captured pages one at a time into one buffer and write
// each to its file, sync the pages directory, then atomically swap the
// manifest and sync the store directory; a crash anywhere here leaves the
// old manifest and the full WAL, both still consistent. Phase 3 (store lock
// again): release the captured pages, advance the checkpoint LSN, clear
// dirty flags on pages whose version is unchanged, and collect the page
// files they superseded. Once the lock is released, those files are deleted
// and covered WAL segments truncated — only now that the directory entry of
// the manifest that covers them is durable.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	// --- Phase 1: capture, under the exclusive store lock.
	s.mu.Lock()
	if s.log == nil {
		s.mu.Unlock()
		return nil
	}
	if err := s.log.Rotate(); err != nil {
		s.mu.Unlock()
		return err
	}
	lsn := s.log.LSN()
	pending := s.cache.takePending()
	img := &manifestImage{checkpointLSN: lsn, nextTableID: s.nextTableID}
	var items []flushItem
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	s.cache.mu.Lock()
	for _, name := range names {
		t := s.tables[name]
		mt := manifestTable{spec: t.spec, id: t.heap.tableID, nextPageID: t.heap.nextPageID}
		for _, pm := range t.heap.pages {
			entryEpoch := pm.durableEpoch
			if pm.dirtyCkpt {
				it := flushItem{pm: pm, oldEpoch: pm.epoch, version: pm.version}
				if pm.res != nil && pm.dirty {
					it.epoch = s.nextEpoch()
					it.pg = pm.res
					pm.ckpt = pm.res
				} else {
					// Not resident (or resident but clean): the newest epoch
					// file holds the complete content — eviction writes dirty
					// pages back before dropping them — so promote it.
					it.epoch = pm.epoch
				}
				it.path = s.pageFilePath(t.heap.tableID, pm.id, it.epoch)
				items = append(items, it)
				entryEpoch = it.epoch
			}
			mt.pages = append(mt.pages, manifestPage{
				id:      pm.id,
				epoch:   entryEpoch,
				firstID: pm.firstID,
				lastID:  pm.lastID,
				count:   uint32(pm.count),
				bytes:   uint32(pm.bytes),
			})
		}
		img.tables = append(img.tables, mt)
	}
	s.cache.mu.Unlock()
	img.epochSeq = atomic.LoadUint64(&s.epochSeq)
	s.mu.Unlock()

	// --- Phase 2: flush and swap, without the store lock.
	fail := func(err error) error {
		s.cache.mu.Lock()
		releaseCaptured(items)
		s.cache.mu.Unlock()
		s.cache.returnPending(pending)
		return err
	}
	hook := func(stage string) error {
		if h := s.ckptHook; h != nil {
			return h(stage)
		}
		return nil
	}
	var buf []byte
	for _, it := range items {
		if it.pg == nil {
			continue
		}
		var err error
		if buf, err = writePage(it.path, it.pg, buf); err != nil {
			return fail(err)
		}
		if err := hook("page-written"); err != nil {
			return fail(err)
		}
	}
	if len(items) > 0 {
		if err := wal.SyncDir(s.pagesDir()); err != nil {
			return fail(err)
		}
	}
	if err := hook("pages-flushed"); err != nil {
		return fail(err)
	}
	if err := wal.SaveSnapshot(s.manifestPath(), encodeManifest(img)); err != nil {
		return fail(err)
	}
	if err := hook("manifest-swapped"); err != nil {
		return fail(err)
	}
	if err := wal.SyncDir(s.dir); err != nil {
		return fail(err)
	}
	if err := hook("store-dir-synced"); err != nil {
		return fail(err)
	}

	// --- Phase 3: install, under the store lock again.
	s.mu.Lock()
	s.checkpointLSN = lsn
	s.checkpoints++
	s.cache.mu.Lock()
	releaseCaptured(items)
	for _, it := range items {
		pm := it.pm
		oldDurable := pm.durableEpoch
		curEpoch := pm.epoch
		same := pm.version == it.version
		pm.durableEpoch = it.epoch
		if it.pg != nil {
			if same {
				// Nothing changed while flushing: the new file is both the
				// newest and the durable image.
				pm.epoch = it.epoch
				pm.dirty = false
			} else if curEpoch == it.oldEpoch {
				// Mutated but not evicted: the flushed file is still the
				// newest on disk; residents stay dirty relative to it.
				pm.epoch = it.epoch
			}
			// Else an eviction wrote an even newer file; leave it in place.
		}
		pm.dirtyCkpt = !same
		// This page's files that neither the directory nor the new manifest
		// references anymore go after the lock. removeFile tolerates repeats.
		for _, e := range [3]uint64{it.oldEpoch, oldDurable, curEpoch} {
			if e != 0 && e != pm.epoch && e != pm.durableEpoch {
				pending = append(pending, s.pageFilePath(pm.heap.tableID, pm.id, e))
			}
		}
	}
	s.cache.mu.Unlock()
	log := s.log
	s.mu.Unlock()

	// Files dropped before this checkpoint and the ones it superseded are
	// unreferenced by the new manifest, so they can go now, outside the
	// lock: epochs are never reused, so no page can come to name them again.
	for _, p := range pending {
		removeFile(p)
	}
	if log == nil {
		return nil
	}
	return log.TruncateThrough(lsn)
}

// releaseCaptured lets go of the pages a checkpoint captured, so that
// mutations edit them in place again; the caller holds the cache mutex.
func releaseCaptured(items []flushItem) {
	for _, it := range items {
		it.pm.ckpt = nil
	}
}

// checkpointLoop is the background worker: a checkpoint every interval.
// Errors are counted (see Stats.CheckpointFailures) and retried next tick.
func (s *Store) checkpointLoop(interval time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if err := s.Checkpoint(); err != nil {
				atomic.AddUint64(&s.ckptFailures, 1)
			}
		}
	}
}
