package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sssdb/internal/proto"
	"sssdb/internal/wal"
)

// The manifest is the durable root of a store: table specs, each table's
// page directory (span, count, size, and the epoch file holding each
// page), and the checkpoint LSN. Recovery = manifest + WAL records with
// LSN greater than the checkpoint LSN; pages themselves load lazily.
//
// It is written atomically (temp file + fsync + rename via
// wal.SaveSnapshot) so a crash anywhere during a checkpoint leaves either
// the old manifest with the full WAL, or the new manifest with the WAL
// suffix — both consistent.
//
// Version 3 directories hold share-row-block pages (proto/rowblock.go) with
// order-preserving cells as wide as their spec says, and a WAL of such
// records; a version 1 (per-row pages and records) or version 2 (24-byte
// shares, specs without widths) directory is refused by name, not mis-decoded.
const manifestVersion = 3

type manifestImage struct {
	checkpointLSN uint64
	nextTableID   uint64
	epochSeq      uint64
	tables        []manifestTable
}

type manifestTable struct {
	spec       proto.TableSpec
	id         uint64
	nextPageID uint64
	pages      []manifestPage
}

type manifestPage struct {
	id      uint64
	epoch   uint64
	firstID uint64
	lastID  uint64
	count   uint32
	bytes   uint32
}

func encodeManifest(img *manifestImage) []byte {
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, manifestVersion)
	buf = binary.BigEndian.AppendUint64(buf, img.checkpointLSN)
	buf = binary.BigEndian.AppendUint64(buf, img.nextTableID)
	buf = binary.BigEndian.AppendUint64(buf, img.epochSeq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(img.tables)))
	for _, t := range img.tables {
		spec := proto.Encode(&proto.CreateTableRequest{Spec: t.spec})
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(spec)))
		buf = append(buf, spec...)
		buf = binary.BigEndian.AppendUint64(buf, t.id)
		buf = binary.BigEndian.AppendUint64(buf, t.nextPageID)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.pages)))
		for _, p := range t.pages {
			buf = binary.BigEndian.AppendUint64(buf, p.id)
			buf = binary.BigEndian.AppendUint64(buf, p.epoch)
			buf = binary.BigEndian.AppendUint64(buf, p.firstID)
			buf = binary.BigEndian.AppendUint64(buf, p.lastID)
			buf = binary.BigEndian.AppendUint32(buf, p.count)
			buf = binary.BigEndian.AppendUint32(buf, p.bytes)
		}
	}
	return buf
}

// manifestReader consumes a manifest, latching the first error; reads past
// it return zeros.
type manifestReader struct {
	data []byte
	err  error
}

func (r *manifestReader) take(n int) []byte {
	if r.err == nil && len(r.data) < n {
		r.err = fmt.Errorf("%w: truncated manifest", ErrBadRequest)
	}
	if r.err != nil {
		return make([]byte, n)
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *manifestReader) u32() uint32 { return binary.BigEndian.Uint32(r.take(4)) }
func (r *manifestReader) u64() uint64 { return binary.BigEndian.Uint64(r.take(8)) }

func decodeManifest(data []byte) (*manifestImage, error) {
	r := &manifestReader{data: data}
	if ver := r.u32(); r.err == nil && ver != manifestVersion {
		return nil, fmt.Errorf("%w: manifest is format version %d, this build reads version %d only", ErrBadRequest, ver, manifestVersion)
	}
	img := &manifestImage{checkpointLSN: r.u64(), nextTableID: r.u64(), epochSeq: r.u64()}
	for n := r.u32(); n > 0 && r.err == nil; n-- {
		specLen := r.u32()
		if uint64(len(r.data)) < uint64(specLen) {
			return nil, fmt.Errorf("%w: truncated manifest spec", ErrBadRequest)
		}
		msg, err := proto.Decode(r.take(int(specLen)))
		if err != nil {
			return nil, fmt.Errorf("store: manifest spec: %w", err)
		}
		ct, ok := msg.(*proto.CreateTableRequest)
		if !ok {
			return nil, fmt.Errorf("%w: manifest spec holds %T", ErrBadRequest, msg)
		}
		mt := manifestTable{spec: ct.Spec, id: r.u64(), nextPageID: r.u64()}
		for n := r.u32(); n > 0 && r.err == nil; n-- {
			mt.pages = append(mt.pages, manifestPage{
				id: r.u64(), epoch: r.u64(), firstID: r.u64(), lastID: r.u64(), count: r.u32(), bytes: r.u32(),
			})
		}
		img.tables = append(img.tables, mt)
	}
	if r.err == nil && len(r.data) != 0 {
		r.err = fmt.Errorf("%w: trailing manifest bytes", ErrBadRequest)
	}
	if r.err != nil {
		return nil, r.err
	}
	return img, nil
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "store.manifest") }
func (s *Store) pagesDir() string     { return filepath.Join(s.dir, "pages") }

func (s *Store) pageFilePath(tableID, pageID, epoch uint64) string {
	return filepath.Join(s.pagesDir(), pageFileName(tableID, pageID, epoch))
}

func pageFileName(tableID, pageID, epoch uint64) string {
	return fmt.Sprintf("t%08x-p%08x-e%016x.pg", tableID, pageID, epoch)
}

func parsePageFileName(name string) (tableID, pageID, epoch uint64, ok bool) {
	if !strings.HasSuffix(name, ".pg") {
		return 0, 0, 0, false
	}
	n, err := fmt.Sscanf(name, "t%08x-p%08x-e%016x.pg", &tableID, &pageID, &epoch)
	if err != nil || n != 3 {
		return 0, 0, 0, false
	}
	return tableID, pageID, epoch, true
}

// loadManifest reads the manifest, returning nil for a store that has never
// checkpointed.
func loadManifest(path string) (*manifestImage, error) {
	data, err := wal.LoadSnapshot(path)
	if err != nil {
		return nil, fmt.Errorf("store: loading manifest: %w", err)
	}
	if data == nil {
		return nil, nil
	}
	return decodeManifest(data)
}

// restoreManifest rebuilds the table directory from a manifest image. No
// page is loaded and no index is built: pages fault in on demand, and a
// column's share index is built by the first read that walks it, as every
// table's are (see table.index), so reopening a large store costs
// O(WAL suffix), not O(table).
func (s *Store) restoreManifest(img *manifestImage) error {
	s.checkpointLSN = img.checkpointLSN
	s.nextTableID = img.nextTableID
	s.epochSeq = img.epochSeq
	for _, mt := range img.tables {
		if err := mt.spec.Validate(); err != nil {
			return fmt.Errorf("%w: manifest spec for %q: %v", ErrBadRequest, mt.spec.Name, err)
		}
		t := &table{
			spec: mt.spec,
			heap: &rowHeap{s: s, tableID: mt.id, nextPageID: mt.nextPageID, shape: shapeOf(&mt.spec)},
			cols: make([]lazyCol, len(mt.spec.Columns)),
		}
		for _, mp := range mt.pages {
			pm := &pageMeta{
				heap:         t.heap,
				id:           mp.id,
				firstID:      mp.firstID,
				lastID:       mp.lastID,
				count:        int(mp.count),
				bytes:        int(mp.bytes),
				epoch:        mp.epoch,
				durableEpoch: mp.epoch,
			}
			t.heap.pages = append(t.heap.pages, pm)
			t.heap.count += pm.count
		}
		s.tables[mt.spec.Name] = t
	}
	return nil
}

// cleanOrphanPages deletes page files the manifest does not reference:
// runtime epochs from evicted dirty pages, half-finished checkpoints, and
// dropped tables. They are all reconstructible (or garbage) — recovery
// reads only manifest-referenced epochs plus the WAL.
func (s *Store) cleanOrphanPages(img *manifestImage) error {
	referenced := make(map[string]bool)
	if img != nil {
		for _, mt := range img.tables {
			for _, mp := range mt.pages {
				referenced[pageFileName(mt.id, mp.id, mp.epoch)] = true
			}
		}
	}
	entries, err := os.ReadDir(s.pagesDir())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if _, _, _, ok := parsePageFileName(name); !ok {
			if !strings.HasPrefix(name, ".snapshot-") {
				continue // unknown file; leave it alone
			}
			// fall through: stale temp file from an interrupted write
		} else if referenced[name] {
			continue
		}
		if err := os.Remove(filepath.Join(s.pagesDir(), name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}
