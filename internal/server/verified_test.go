package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"sssdb/internal/merkle"
	"sssdb/internal/proto"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

// empSpec is the emp shape: four order-preserving columns (13-byte cells)
// and four field-share columns. The order-preserving dept column is not
// indexed, so a verified read cannot filter on it.
func empSpec() proto.TableSpec {
	spec := proto.TableSpec{Name: "emp"}
	for _, c := range []string{"id", "name", "salary", "dept"} {
		spec.Columns = append(spec.Columns, proto.ColumnSpec{Name: c + "#o", Kind: proto.KindOPP, Indexed: c != "dept", Width: 13})
	}
	for _, c := range []string{"id", "name", "salary", "dept"} {
		spec.Columns = append(spec.Columns, proto.ColumnSpec{Name: c + "#f", Kind: proto.KindField})
	}
	return spec
}

// empProvider is a provider holding n deterministic emp rows, whose salary
// order is not their id order.
func empProvider(t testing.TB, n int) *Provider {
	t.Helper()
	p := newProvider(t)
	if err := p.Store().CreateTable(empSpec()); err != nil {
		t.Fatal(err)
	}
	rows := make([]proto.Row, 0, 4096)
	for i := 1; i <= n; i++ {
		id, salary := uint64(i), uint64(i*7919%n)
		rows = append(rows, proto.Row{ID: id, Cells: [][]byte{
			oppCell(id), oppCell(id * 31 % 1000), oppCell(salary), oppCell(id % 7),
			cell8(id), cell8(id * 3), cell8(salary), cell8(id % 7),
		}})
		if len(rows) == cap(rows) || i == n {
			if err := p.Store().Insert("emp", rows); err != nil {
				t.Fatal(err)
			}
			rows = rows[:0]
		}
	}
	return p
}

func salaries(lo, hi uint64) *proto.Filter {
	return &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(lo), Hi: oppCell(hi)}
}

// streamScan runs req through HandleStream, recording every batch.
func streamScan(t *testing.T, p *Provider, req *proto.ScanRequest, each func(b *proto.RowsResponse)) ([]*proto.RowsResponse, error) {
	t.Helper()
	var batches []*proto.RowsResponse
	handled, err := p.HandleStream(req, func(b *proto.RowsResponse) error {
		batches = append(batches, b)
		if each != nil {
			each(b)
		}
		return nil
	})
	if !handled {
		t.Fatal("HandleStream declined the verified scan")
	}
	return batches, err
}

// TestVerifiedScanStreamsInChunks: a verified scan larger than one batch is
// streamed from the cursor in several chunks, only the last carrying the
// proof, and put back together it is the very answer the buffered scan gave:
// golden is the SHA-256 of that answer's encoding, as Store.Scan(…, true)
// returned it when it walked the whole range under one lock hold.
func TestVerifiedScanStreamsInChunks(t *testing.T) {
	const golden = "222f011cc1d1e130a2a037d99d13f90b0736b3590024ff571e2dea7c80a489a3"
	p := empProvider(t, 6000)
	batches, err := streamScan(t, p, &proto.ScanRequest{Table: "emp", Filter: salaries(100, 5900), WithProof: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) < 2 {
		t.Fatalf("%d chunk(s); a verified scan of %d+ bytes must stream", len(batches), proto.BatchBytes)
	}
	var whole *proto.RowsResponse
	for i, b := range batches {
		if last := i == len(batches)-1; last != (len(b.Proof) > 0) {
			t.Fatalf("chunk %d of %d: proof of %d bytes; only the last carries it", i, len(batches), len(b.Proof))
		}
		whole = proto.MergeRowsChunk(whole, b)
	}
	if len(whole.Rows) != 5801 {
		t.Fatalf("%d rows, want 5801", len(whole.Rows))
	}
	if _, err := merkle.UnmarshalRangeProof(whole.Proof); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(proto.Encode(whole))
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Fatalf("reassembled answer hashes to %s, want %s", got, golden)
	}
}

// TestVerifiedScanRefusesMixedRows: a write between two batches of a verified
// scan fails it with the error that names the concurrent write; no proof over
// rows of two table states is ever sent.
func TestVerifiedScanRefusesMixedRows(t *testing.T) {
	p := empProvider(t, 6000)
	wrote := false
	batches, err := streamScan(t, p, &proto.ScanRequest{Table: "emp", Filter: salaries(0, 6000), WithProof: true}, func(*proto.RowsResponse) {
		if !wrote {
			wrote = true
			if _, err := p.Store().Delete("emp", []uint64{4321}); err != nil {
				t.Fatal(err)
			}
		}
	})
	for _, b := range batches {
		if len(b.Proof) > 0 {
			t.Fatal("a proof went out over rows read before and after a write")
		}
	}
	var re *proto.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, store.ErrConcurrentWrite.Error()) {
		t.Fatalf("verified scan across a write ended with %v, want %q", err, store.ErrConcurrentWrite)
	}
	// Without the write the same scan proves.
	batches, err = streamScan(t, p, &proto.ScanRequest{Table: "emp", Filter: salaries(0, 6000), WithProof: true}, nil)
	if err != nil || len(batches[len(batches)-1].Proof) == 0 {
		t.Fatalf("verified scan after the write: %v", err)
	}
}

// slowEmits serves a provider's scans with a pause before each batch and
// reports, once HandleStream returns, how many batches it emitted and the
// error it stopped with.
type slowEmits struct {
	*Provider
	pause   time.Duration
	emitted int
	done    chan error
}

func (h *slowEmits) HandleStream(req proto.Message, emit func(*proto.RowsResponse) error) (bool, error) {
	handled, err := h.Provider.HandleStream(req, func(b *proto.RowsResponse) error {
		time.Sleep(h.pause)
		if err := emit(b); err != nil {
			return err
		}
		h.emitted++
		return nil
	})
	if handled {
		h.done <- err
	}
	return handled, err
}

// TestVerifiedScanHonoursDeadline: a client that gives up on a verified scan
// stops the provider. The call fails with os.ErrDeadlineExceeded, and the
// cancel frame it sends ends the provider's cursor at the next batch instead
// of at the end of the range.
func TestVerifiedScanHonoursDeadline(t *testing.T) {
	p := empProvider(t, 6000)
	req := &proto.ScanRequest{Table: "emp", Filter: salaries(0, 6000), WithProof: true}
	all, err := streamScan(t, p, req, nil)
	if err != nil || len(all) < 2 {
		t.Fatalf("undisturbed scan: %d batches, %v; want 2 or more", len(all), err)
	}
	h := &slowEmits{Provider: p, pause: 30 * time.Millisecond, done: make(chan error, 1)}
	c := transport.NewLocal(h)
	defer c.Close()
	if _, err := transport.CallWithDeadline(c, req, time.Now().Add(20*time.Millisecond)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("verified scan past its deadline: %v, want os.ErrDeadlineExceeded", err)
	}
	select {
	case err = <-h.done:
	case <-time.After(5 * time.Second):
		t.Fatal("provider still scanning 5s after its client gave up")
	}
	if !errors.Is(err, transport.ErrStreamCanceled) || h.emitted >= len(all) {
		t.Fatalf("provider emitted %d of %d batches and stopped with %v, want it cancelled before the end", h.emitted, len(all), err)
	}
}

// TestVerifiedScanRefusedBeforeRows: a verified scan that cannot be proved is
// a bad request, refused before any row is sent.
func TestVerifiedScanRefusedBeforeRows(t *testing.T) {
	p := empProvider(t, 100)
	for name, req := range map[string]*proto.ScanRequest{
		"no filter": {Table: "emp", WithProof: true},
		"a limit":   {Table: "emp", Filter: salaries(0, 50), Limit: 5, WithProof: true},
		"unindexed": {Table: "emp", Filter: &proto.Filter{Col: "dept#o", Op: proto.FilterEq, Lo: oppCell(3)}, WithProof: true},
	} {
		batches, err := streamScan(t, p, req, nil)
		var re *proto.RemoteError
		if len(batches) > 0 || !errors.As(err, &re) || re.Code != proto.CodeBadRequest {
			t.Errorf("%s: %d batches, %v; want CodeBadRequest before any row", name, len(batches), err)
		}
	}
}

// TestVerifiedScanHeapBounded: while a provider serves a whole-range verified
// scan of a 100 k-row emp table, what it holds live beyond its tables, indexes
// and warm Merkle cache is about one batch, not the answer (≈30 MiB).
func TestVerifiedScanHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 100 k rows")
	}
	p := empProvider(t, 100_000)
	req := &proto.ScanRequest{Table: "emp", Filter: salaries(0, 100_000), WithProof: true}
	if _, err := streamScan(t, p, req, nil); err != nil { // warms the Merkle cache
		t.Fatal(err)
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base, peak := live(), uint64(0)
	var rows int
	handled, err := p.HandleStream(req, func(b *proto.RowsResponse) error {
		rows += len(b.Rows)
		peak = max(peak, live())
		return nil
	})
	if !handled || err != nil || rows != 100_000 {
		t.Fatalf("verified scan: handled %v, %v, %d rows", handled, err, rows)
	}
	const bound = 4 << 20
	if peak > base+bound {
		t.Fatalf("live heap during the scan peaked %s above the %s baseline, want ≤ %s",
			mib(peak-base), mib(base), mib(bound))
	}
	t.Logf("live heap during the scan: %s above a %s baseline", mib(max(peak, base)-base), mib(base))
}

func mib(b uint64) string { return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20)) }
