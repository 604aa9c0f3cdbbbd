package main

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"sssdb/internal/btree"
	"sssdb/internal/field"
	"sssdb/internal/numenc"
	"sssdb/internal/opp"
	"sssdb/internal/proto"
	"sssdb/internal/secretshare"
	"sssdb/internal/sql"
	"sssdb/internal/store"
	"sssdb/internal/wal"
)

// A probe is the benchmark calling one layer's public function directly,
// with inputs shaped like (or captured from) the workload's own traffic. It
// says what the layer costs alone; the trace says what it costs in context.

// prober runs timing loops with one time budget and keeps the first error
// any probed call returned.
type prober struct {
	d   time.Duration
	err error
}

// time calls fn in doubling batches until one batch lasts at least the
// budget, and returns that batch's mean nanoseconds per call. After an
// error it stops calling and returns NaN.
func (p *prober) time(fn func() error) float64 {
	for n := 1; p.err == nil; n *= 2 {
		start := time.Now()
		for i := 0; i < n && p.err == nil; i++ {
			p.err = fn()
		}
		if el := time.Since(start); el >= p.d || n >= 1<<30 {
			return float64(el) / float64(n)
		}
	}
	return math.NaN()
}

// probeLayers fills ms with every probe metric. A probe whose input this
// workload never produced (no scan captured on a write workload, say) is
// reported as null.
func probeLayers(ms metricSet, e *env, tr *tracer, stmts []string, d time.Duration, scratch string) error {
	p := &prober{d: d}
	nan := math.NaN()

	// sql: parse the workload's own statements.
	ms.set("sql.parse_us", nan, 0)
	if len(stmts) > 0 {
		i := 0
		ms.set("sql.parse_us", p.time(func() error {
			i++
			_, err := sql.Parse(stmts[i%len(stmts)])
			return err
		})/1e3, len(stmts))
	}

	// secretshare: one random-polynomial split and one k-share combine per
	// value, as the client does per cell.
	fs, err := secretshare.NewSchemeFromKey(threshold, providersPerGroup, masterKey)
	if err != nil {
		return err
	}
	v := uint64(0)
	ms.set("secretshare.split_ns_per_value", p.time(func() error {
		v++
		_, err := fs.Split(field.New(v), rand.Reader)
		return err
	}), 0)
	weights, err := fs.WeightsFor([]int{0, 1})
	if err != nil {
		return err
	}
	shares, err := fs.Split(field.New(42), rand.Reader)
	if err != nil {
		return err
	}
	ys := []field.Element{shares[0].Y, shares[1].Y}
	ms.set("secretshare.combine_ns_per_value", p.time(func() error {
		_, err := secretshare.CombineShares(weights, ys)
		return err
	}), 0)

	// opp: the client's INT domain (degree 3, 40 bits). Values are distinct,
	// so every derivation misses the scheme's share cache, as a bulk load of
	// distinct ids does.
	ints, err := opp.NewScheme(opp.Params{Degree: 3, DomainBits: 40, N: providersPerGroup}, masterKey)
	if err != nil {
		return err
	}
	ms.set("opp.split_ns_per_value", p.time(func() error {
		v++
		_, err := ints.Split(v)
		return err
	}), 0)
	ms.set("opp.share_at_ns", p.time(func() error {
		v++
		_, err := ints.ShareAt(v, 0)
		return err
	}), 0)
	// Degree 3 needs four shares to interpolate and a group has three
	// providers, so the client inverts a single share by binary search
	// (ReconstructSearch); that is the function probed.
	var cells [64]opp.Share
	for i := range cells {
		if cells[i], err = ints.ShareAt(uint64(i)*7919, 0); err != nil {
			return err
		}
	}
	ms.set("opp.reconstruct_ns_per_value", p.time(func() error {
		v++
		_, err := ints.ReconstructSearch(0, cells[v%uint64(len(cells))])
		return err
	}), 0)

	codec, err := numenc.NewStringCodec(numenc.PrintableAlphabet, 8)
	if err != nil {
		return err
	}
	ms.set("numenc.encode_ns", p.time(func() error {
		_, err := codec.Encode("QWERTYUI")
		return err
	}), 0)

	// proto: the largest row chunk and the workload's main request, as
	// captured at the connection wrapper.
	for _, name := range []string{"proto.encode_ns_per_row", "proto.decode_ns_per_row",
		"proto.response_bytes_per_row", "proto.request_bytes"} {
		ms.set(name, nan, 0)
	}
	if chunk := tr.largestChunk(); chunk != nil && len(chunk.Rows) > 0 {
		n := len(chunk.Rows)
		body := proto.Encode(chunk)
		ms.set("proto.encode_ns_per_row", p.time(func() error {
			proto.Encode(chunk)
			return nil
		})/float64(n), n)
		ms.set("proto.decode_ns_per_row", p.time(func() error {
			_, err := proto.Decode(body)
			return err
		})/float64(n), n)
		ms.set("proto.response_bytes_per_row", float64(len(body))/float64(n), n)
	}
	for _, kind := range []proto.Kind{proto.KScan, proto.KAggregate, proto.KInsert, proto.KUpdate, proto.KTxPrepare} {
		if _, req := tr.captured(kind); req != nil {
			ms.set("proto.request_bytes", float64(len(proto.Encode(req))), 0)
			break
		}
	}

	if err := probeStore(ms, p, e, tr, scratch); err != nil {
		return err
	}

	// btree: point lookups in a tree shaped like one column index of the
	// table: one entry per loaded row, 24-byte share keys with an 8-byte row
	// id suffix.
	treeKeys := uint64(len(e.m.base))
	tree := btree.New()
	fillKey := func(k []byte, i uint64) {
		binary.BigEndian.PutUint64(k[16:], splitmix64(i))
		binary.BigEndian.PutUint64(k[24:], i)
	}
	for i := uint64(0); i < treeKeys; i++ {
		k := make([]byte, 32)
		fillKey(k, i)
		tree.Set(k, nil)
	}
	probeKey := make([]byte, 32)
	ms.set("btree.get_ns", p.time(func() error {
		v++
		fillKey(probeKey, v%treeKeys)
		if _, ok := tree.Get(probeKey); !ok {
			return errors.New("btree probe: inserted key not found")
		}
		return nil
	}), int(treeKeys))

	// wal: append + fsync of one small record on the scratch filesystem —
	// the floor under every acknowledged write on this sandbox.
	walDir, err := os.MkdirTemp(scratch, "probe-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	log, _, err := wal.OpenSegments(walDir, "probe.wal", 0, nil)
	if err != nil {
		return err
	}
	record := make([]byte, 128)
	ms.set("wal.append_sync_us", p.time(func() error {
		if _, err := log.Append(record); err != nil {
			return err
		}
		return log.Sync()
	})/1e3, 0)
	if err := log.Close(); err != nil && p.err == nil {
		p.err = err
	}
	return p.err
}

// probeStore replays captured requests against the store of the provider
// they were built for, bypassing server and transport.
func probeStore(ms metricSet, p *prober, e *env, tr *tracer, scratch string) error {
	nan := math.NaN()
	for _, name := range []string{"store.point_scan_us", "store.scan_ns_per_row",
		"store.aggregate_ns_per_row", "store.insert_us_per_row"} {
		ms.set(name, nan, 0)
	}

	if prov, req := tr.captured(proto.KScan); req != nil {
		m := req.(*proto.ScanRequest)
		st := e.f.stores[prov]
		if m.Filter != nil && m.Filter.Op == proto.FilterEq {
			ms.set("store.point_scan_us", p.time(func() error {
				_, err := st.Scan(m.Table, m.Filter, m.Projection, m.Limit, false)
				return err
			})/1e3, 0)
		}
		rows := 0
		ns := p.time(func() error {
			rows = 0
			cur, err := st.OpenCursor(m.Table, m.Filter, m.Projection, m.Limit, 0)
			for err == nil {
				var batch *proto.RowsResponse
				if batch, err = cur.Next(); batch == nil {
					break
				}
				rows += len(batch.Rows)
			}
			return err
		})
		if rows > 1 {
			ms.set("store.scan_ns_per_row", ns/float64(rows), rows)
		}
	}

	if prov, req := tr.captured(proto.KAggregate); req != nil {
		if m := req.(*proto.AggregateRequest); m.GroupCol != "" {
			st := e.f.stores[prov]
			rows, err := st.RowCount(m.Table)
			if err != nil {
				return err
			}
			ms.set("store.aggregate_ns_per_row", p.time(func() error {
				_, err := st.AggregateGrouped(m.Table, m.Op, m.ValueCol, m.GroupCol, m.Filter)
				return err
			})/float64(rows), rows)
		}
	}

	if prov, req := tr.captured(proto.KInsert); req != nil {
		m := req.(*proto.InsertRequest)
		dir, err := os.MkdirTemp(scratch, "probe-store-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := store.OpenOptions(dir, store.Options{})
		if err != nil {
			return err
		}
		defer st.Close()
		for _, spec := range e.f.stores[prov].ListTables() {
			if spec.Name == m.Table {
				if err := st.CreateTable(spec); err != nil {
					return err
				}
			}
		}
		nextID := uint64(1)
		ms.set("store.insert_us_per_row", p.time(func() error {
			rows := make([]proto.Row, len(m.Rows))
			for i, r := range m.Rows {
				rows[i] = proto.Row{ID: nextID, Cells: r.Cells}
				nextID++
			}
			return st.Insert(m.Table, rows)
		})/1e3/float64(len(m.Rows)), len(m.Rows))
	}
	if p.err != nil {
		return fmt.Errorf("store probe: %w", p.err)
	}
	return nil
}
