package client

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sssdb/internal/proto"
	"sssdb/internal/server"
	"sssdb/internal/transport"
)

// TestStreamingMatchesVerified is the differential gate for the streaming
// scan pipeline against the one other implementation that reads the same
// shares: SELECT VERIFIED gathers whole proof-carrying responses from every
// provider and robust-reconstructs them, sharing no scan code with the
// zipper (provider cursors, chunk alignment, batch reconstruction). Across
// every query shape Exec supports the two must produce exactly the same
// rows — order included wherever a predicate or ORDER BY fixes one; an
// unpredicated verified read walks the index of the column it synthesizes
// its proof range on, not the row heap. (TestDifferentialRandomWorkload
// checks the stream against a plaintext oracle.)
func TestStreamingMatchesVerified(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)

	queries := []string{
		`SELECT * FROM employees`,
		`SELECT name FROM employees`,
		`SELECT name, salary FROM employees WHERE name = 'John'`,
		`SELECT * FROM employees WHERE salary BETWEEN 20 AND 60`,
		`SELECT salary FROM employees WHERE salary > 40`,
		`SELECT name FROM employees WHERE salary IN (10, 40, 80)`,
		`SELECT name FROM employees WHERE salary IN (10, 40, 80) AND dept = 2`,
		`SELECT name FROM employees WHERE salary BETWEEN 10 AND 60 AND dept = 2`,
		`SELECT salary FROM employees WHERE salary >= 10 LIMIT 3`,
		`SELECT salary FROM employees WHERE salary >= 10 AND dept >= 1 LIMIT 2`,
		`SELECT * FROM employees WHERE name = 'Nobody'`,
		`SELECT * FROM employees WHERE salary BETWEEN 60 AND 10`,
		`SELECT name FROM employees ORDER BY salary`,
		`SELECT COUNT(*), SUM(salary) FROM employees`,
	}
	for _, q := range queries {
		stream := f.mustExec(t, q)
		verified := f.mustExec(t, q+` VERIFIED`)
		if stream.Verified || !verified.Verified {
			t.Errorf("%s: Verified flags %v/%v, want false/true", q, stream.Verified, verified.Verified)
		}
		got, want := rowsAsStrings(stream), rowsAsStrings(verified)
		if !strings.Contains(q, "WHERE") && !strings.Contains(q, "ORDER BY") {
			sort.Strings(got)
			sort.Strings(want)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s:\n  streaming %v\n  verified  %v", q, got, want)
		}
	}
}

// drainRows iterates a Rows to completion and returns its row strings.
func drainRows(t *testing.T, r *Rows) []string {
	t.Helper()
	defer r.Close()
	var out []string
	for r.Next() {
		row := r.Row()
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.Format()
		}
		out = append(out, strings.Join(parts, ","))
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Rows.Err: %v", err)
	}
	return out
}

// TestQueryRowsMatchesExec checks the public cursor API delivers the same
// rows as the one-shot form for streaming and materialized shapes alike.
func TestQueryRowsMatchesExec(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)

	queries := []string{
		`SELECT * FROM employees`,
		`SELECT name, salary FROM employees WHERE salary BETWEEN 20 AND 60`,
		`SELECT salary FROM employees WHERE salary >= 10 LIMIT 3`,
		`SELECT name FROM employees WHERE name = 'Nobody'`,
		`SELECT name FROM employees ORDER BY salary`,  // materialized: ORDER BY
		`SELECT SUM(salary), COUNT(*) FROM employees`, // materialized: aggregate
		`SELECT MEDIAN(salary) FROM employees WHERE dept = 2`,
	}
	for _, q := range queries {
		want := f.mustExec(t, q)
		r, err := f.client.QueryRows(q)
		if err != nil {
			t.Fatalf("QueryRows(%q): %v", q, err)
		}
		if fmt.Sprint(r.Columns()) != fmt.Sprint(want.Columns) {
			t.Errorf("%s: columns %v, want %v", q, r.Columns(), want.Columns)
		}
		if got := drainRows(t, r); fmt.Sprint(got) != fmt.Sprint(rowsAsStrings(want)) {
			t.Errorf("%s:\n  QueryRows %v\n  Exec      %v", q, got, rowsAsStrings(want))
		}
	}
}

// holdBack serves a scan in chunks of streamBatchRows rows, the most the
// aligner gathers before it reconstructs, and once its first chunk is on the
// wire holds every later one until release is closed: the scan cannot end
// before the test lets it.
type holdBack struct {
	*server.Provider
	release <-chan struct{}
}

func (h holdBack) HandleStream(req proto.Message, emit func(*proto.RowsResponse) error) (bool, error) {
	if _, ok := req.(*proto.ScanRequest); !ok {
		return h.Provider.HandleStream(req, emit)
	}
	sent := 0
	return h.Provider.HandleStream(req, func(chunk *proto.RowsResponse) error {
		for lo := 0; lo < len(chunk.Rows); lo += streamBatchRows {
			// The transport holds each chunk until the next one arrives, so
			// the first is on the wire once the second is emitted.
			if sent == 2 {
				<-h.release
			}
			hi := min(lo+streamBatchRows, len(chunk.Rows))
			if err := emit(&proto.RowsResponse{Columns: chunk.Columns, Rows: chunk.Rows[lo:hi]}); err != nil {
				return err
			}
			sent++
		}
		return nil
	})
}

// TestQueryRowsFirstRowBeforeScanEnds: a streamed result can be larger than
// the client because rows reach the caller as their chunks arrive, not after
// the scan ends. Every provider holds back the rest of its scan until the
// caller has read the first row.
func TestQueryRowsFirstRowBeforeScanEnds(t *testing.T) {
	release := make(chan struct{})
	f := newFleetWrapped(t, 3, 2, Options{}, func(_ int, p *server.Provider) transport.Handler {
		return holdBack{Provider: p, release: release}
	})
	releaseAll := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseAll) // before the fleet's Close
	f.mustExec(t, `CREATE TABLE big (x INT)`)
	const n = 4 * streamBatchRows
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{IntValue(int64(i))}
	}
	if _, err := f.client.InsertValues("big", rows); err != nil {
		t.Fatal(err)
	}

	first := make(chan *Rows, 1)
	go func() {
		r, err := f.client.QueryRows(`SELECT x FROM big`)
		if err != nil {
			t.Error(err)
			close(first)
			return
		}
		r.Next()
		first <- r
	}()
	var r *Rows
	select {
	case r = <-first:
	case <-time.After(5 * time.Second):
		releaseAll()
		if r = <-first; r != nil {
			r.Close()
		}
		t.Fatal("no row reached the caller while the providers held back the rest of the scan")
	}
	if r == nil {
		return
	}
	defer r.Close()
	if r.Err() != nil || len(r.Row()) != 1 {
		t.Fatalf("first row %v, err %v", r.Row(), r.Err())
	}
	releaseAll()
	got := 1
	for r.Next() {
		got++
	}
	if r.Err() != nil || got != n {
		t.Fatalf("scan returned %d rows (err %v), want %d", got, r.Err(), n)
	}
}

// TestQueryRowsRejectsNonSelect pins the API contract: the cursor form is
// for SELECT only.
func TestQueryRowsRejectsNonSelect(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	if _, err := f.client.QueryRows(`INSERT INTO employees VALUES ('Eve', 5, 1)`); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("QueryRows(INSERT) err %v, want ErrUnsupported", err)
	}
	if _, err := f.client.QueryRows(`SELECT * FROM missing`); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("QueryRows(missing table) err %v, want ErrNoSuchTable", err)
	}
}

// TestQueryRowsCloseReleasesLock proves an abandoned cursor cannot wedge
// the client: Close mid-iteration releases the shared statement lock, so a
// following exclusive statement (DML) proceeds.
func TestQueryRowsCloseReleasesLock(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE nums (v INT)`)
	rows := make([][]Value, 512)
	for i := range rows {
		rows[i] = []Value{IntValue(int64(i))}
	}
	if _, err := f.client.InsertValues("nums", rows); err != nil {
		t.Fatal(err)
	}

	r, err := f.client.QueryRows(`SELECT v FROM nums`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !r.Next() {
			t.Fatalf("Next()=false at row %d: %v", i, r.Err())
		}
	}
	r.Close()
	r.Close() // idempotent

	done := make(chan error, 1)
	go func() {
		_, err := f.client.Exec(`UPDATE nums SET v = 1000 WHERE v = 0`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("UPDATE after Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("UPDATE blocked: Rows.Close leaked the statement lock")
	}

	// Iterating to completion must also release it (via finish), even
	// without an explicit Close.
	r2, err := f.client.QueryRows(`SELECT v FROM nums WHERE v = 1000`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for r2.Next() {
		n++
	}
	if n != 1 || r2.Err() != nil {
		t.Fatalf("rows %d err %v", n, r2.Err())
	}
	go func() {
		_, err := f.client.Exec(`UPDATE nums SET v = 0 WHERE v = 1000`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("UPDATE after exhaustion: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("UPDATE blocked: exhausted Rows leaked the statement lock")
	}
	r2.Close()
}

// TestStreamingLimitWireBytes asserts the O(limit) transfer property: a
// LIMIT-10 scan over a large table must move a small fraction of the bytes
// of the full scan, because the limit is pushed into the provider cursors
// (and the residual-predicate variant is cut short by cancel frames) — and
// the O(selected columns) one: only the cells the statement reads move.
func TestStreamingLimitWireBytes(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE nums (v INT, w INT)`)
	const n = 4096
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{IntValue(int64(i)), IntValue(int64(i % 7))}
	}
	if _, err := f.client.InsertValues("nums", rows); err != nil {
		t.Fatal(err)
	}

	measure := func(q string, wantRows int) uint64 {
		t.Helper()
		before := f.client.Stats().BytesReceived
		res := f.mustExec(t, q)
		if len(res.Rows) != wantRows {
			t.Fatalf("%s: %d rows, want %d", q, len(res.Rows), wantRows)
		}
		return f.client.Stats().BytesReceived - before
	}

	full := measure(`SELECT v FROM nums WHERE v >= 0`, n)
	limited := measure(`SELECT v FROM nums WHERE v >= 0 LIMIT 10`, 10)
	if limited*100 > full {
		t.Errorf("LIMIT 10 received %d bytes vs %d for the full scan; want <1/100 (limit pushdown broken)", limited, full)
	}
	// The scan reads one of two columns, so each of the K=2 providers ships
	// one 8-byte field share per row plus at most 5 bytes of framing — not
	// the 64 bytes a stored row's four cells take.
	if perRow := full / (2 * n); perRow > 13 {
		t.Errorf("SELECT v received %d bytes per row per provider, want ≤13 (projection not pushed)", perRow)
	}
	if limited > 400 {
		t.Errorf("LIMIT 10 of one column received %d bytes, want ≤400", limited)
	}
}

// scanCounter counts the unverified Scan requests that reach a provider
// outside the streaming path.
type scanCounter struct {
	*server.Provider
	buffered *atomic.Int32
}

func (h scanCounter) Handle(req proto.Message) proto.Message {
	if m, ok := req.(*proto.ScanRequest); ok && !m.WithProof {
		h.buffered.Add(1)
	}
	return h.Provider.Handle(req)
}

// scanLog records the streamed scan requests a fleet's providers receive.
type scanLog struct {
	mu   sync.Mutex
	reqs []loggedScan
}

type loggedScan struct {
	provider int
	req      *proto.ScanRequest
}

// recorder wraps provider i's handler so its streamed scans land in the log.
func (l *scanLog) recorder(i int, p *server.Provider) transport.Handler {
	return scanRecorder{Provider: p, provider: i, log: l}
}

// take returns the scans logged since the last take.
func (l *scanLog) take() []loggedScan {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.reqs
	l.reqs = nil
	return out
}

type scanRecorder struct {
	*server.Provider
	provider int
	log      *scanLog
}

func (h scanRecorder) HandleStream(req proto.Message, emit func(*proto.RowsResponse) error) (bool, error) {
	if m, ok := req.(*proto.ScanRequest); ok {
		h.log.mu.Lock()
		h.log.reqs = append(h.log.reqs, loggedScan{provider: h.provider, req: m})
		h.log.mu.Unlock()
	}
	return h.Provider.HandleStream(req, emit)
}

// TestStreamFailoverDeadAtOpen checks the stream owns failover: with a
// quorum provider dead when the scan opens, Exec and QueryRows both succeed
// on the surviving K — and no provider ever sees an unverified Scan outside
// the streaming path, because no second scan path exists to fall back to.
func TestStreamFailoverDeadAtOpen(t *testing.T) {
	var buffered atomic.Int32
	count := func(_ int, p *server.Provider) transport.Handler {
		return scanCounter{Provider: p, buffered: &buffered}
	}
	f := newFleetWrapped(t, 3, 2, Options{}, count)
	setupEmployees(t, f)
	f.faults[0].Crash()
	res := f.mustExec(t, `SELECT name FROM employees WHERE salary BETWEEN 10 AND 80`)
	if len(res.Rows) != 6 {
		t.Fatalf("Exec with crashed provider: %d rows, want 6", len(res.Rows))
	}

	f2 := newFleetWrapped(t, 3, 2, Options{}, count)
	setupEmployees(t, f2)
	f2.faults[1].Crash()
	r, err := f2.client.QueryRows(`SELECT name FROM employees`)
	if err != nil {
		t.Fatalf("QueryRows with crashed provider: %v", err)
	}
	if got := drainRows(t, r); len(got) != 6 {
		t.Fatalf("QueryRows with crashed provider: %d rows, want 6", len(got))
	}
	if n := buffered.Load(); n != 0 {
		t.Fatalf("providers served %d unverified Scan requests outside the stream", n)
	}

	// One failure too many: K healthy providers no longer exist, and the
	// scan says so instead of retrying forever.
	f2.faults[2].Crash()
	_, err = f2.client.Exec(`SELECT name FROM employees`)
	if !errors.Is(err, ErrNotEnough) || !errors.Is(err, transport.ErrInjectedCrash) {
		t.Fatalf("Exec with 2 of 3 providers crashed: %v, want ErrNotEnough naming the injected crash", err)
	}
}

// TestStreamFailoverMidStream kills a quorum provider after part of its
// result has flowed, with hedging off so no rival stream can adopt the
// slot. Nothing has reached the caller of Exec — nor of QueryRows, whose
// first batch is still being aligned — so both must restart on the
// surviving providers and return the full, identical result.
func TestStreamFailoverMidStream(t *testing.T) {
	const q = `SELECT name, salary, dept FROM employees WHERE salary >= 10`
	for _, viaRows := range []bool{false, true} {
		var active, started atomic.Int32
		f := newFleetWrapped(t, 3, 2, Options{HedgeDelay: -1}, func(_ int, p *server.Provider) transport.Handler {
			// One row per chunk, so a six-row table is a six-chunk stream.
			return &leakProbe{Provider: p, active: &active, started: &started}
		})
		setupEmployees(t, f)
		want := rowsAsStrings(f.mustExec(t, q))
		if len(want) != 6 {
			t.Fatalf("healthy fleet: %d rows, want 6", len(want))
		}
		f.faults[0].CrashAfterChunks(2)
		var got []string
		if viaRows {
			r, err := f.client.QueryRows(q)
			if err != nil {
				t.Fatal(err)
			}
			got = drainRows(t, r)
		} else {
			got = rowsAsStrings(f.mustExec(t, q))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("QueryRows=%v after a mid-stream crash:\n  got  %v\n  want %v", viaRows, got, want)
		}
		if hs := f.client.HedgeStats(); hs.Issued != 0 {
			t.Fatalf("hedging is off, yet %d hedges were issued", hs.Issued)
		}
	}
}

// TestLimitNotSpentOnMaskedRows pins the pushed-down LIMIT against a
// concurrent INSERT. Providers apply the limit themselves, before the
// client drops rows at or above the insert watermark, so a half-landed row
// that matches the range used to cost the result a slot: LIMIT 20 returned
// 19 when the row had reached every provider read, and an inconsistency
// error when it had reached only one of them. The continuation stream that
// fills the slot must ask for the cells the limited stream asked for: the
// aligner reconstructs both through one fetch plan.
func TestLimitNotSpentOnMaskedRows(t *testing.T) {
	for name, landed := range map[string][]int{
		// Two of three, so that whichever two providers the read ranks first,
		// at least one of them holds the row.
		"landed on two of three providers": {0, 1},
		"landed everywhere":                {0, 1, 2},
	} {
		var log scanLog
		f := newFleetWrapped(t, 3, 2, Options{}, log.recorder)
		f.mustExec(t, `CREATE TABLE t (v INT, w INT)`)
		const stable = 30
		rows := make([][]Value, stable)
		for i := range rows {
			rows[i] = []Value{IntValue(int64(100 + i)), IntValue(int64(i))}
		}
		if _, err := f.client.InsertValues("t", rows); err != nil {
			t.Fatal(err)
		}
		// An INSERT caught between its provider round trips: ids reserved
		// (so scans mask them), rows stored at some providers, nothing
		// acknowledged. v = 5 sorts ahead of every stable row in the
		// providers' index order, so it takes the first LIMIT slot.
		c := f.client.groups[0]
		meta := f.client.cat.tables["t"]
		base := c.reserveIDs(meta, 1)
		perProvider, err := c.encodeRowsAt(meta, []uint64{base}, [][]Value{{IntValue(5), IntValue(0)}})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range landed {
			if _, err := c.call(p, &proto.InsertRequest{Table: "t", Rows: perProvider[p]}, noDeadline); err != nil {
				t.Fatal(err)
			}
		}
		for _, limit := range []int{1, 20, stable} {
			q := fmt.Sprintf(`SELECT v FROM t WHERE v BETWEEN 0 AND 1000 LIMIT %d`, limit)
			log.take()
			res, err := f.client.Exec(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q, err)
			}
			continued := false
			for _, s := range log.take() {
				continued = continued || s.req.Limit == 0
				if fmt.Sprint(s.req.Projection) != "[v#f]" {
					t.Fatalf("%s: %s: provider %d asked with LIMIT %d for %v, want [v#f]",
						name, q, s.provider, s.req.Limit, s.req.Projection)
				}
			}
			if !continued {
				t.Fatalf("%s: %s: no unlimited continuation stream was opened", name, q)
			}
			if len(res.Rows) != limit {
				t.Fatalf("%s: %s returned %d rows with %d stable rows in range", name, q, len(res.Rows), stable)
			}
			for i, row := range res.Rows {
				if row[0].I != int64(100+i) {
					t.Fatalf("%s: %s row %d is %d, want %d", name, q, i, row[0].I, 100+i)
				}
			}
		}
		// More than the stable rows can fill: everything stable, no error.
		if res := f.mustExec(t, `SELECT v FROM t WHERE v BETWEEN 0 AND 1000 LIMIT 40`); len(res.Rows) != stable {
			t.Fatalf("%s: LIMIT 40 returned %d rows, want the %d stable ones", name, len(res.Rows), stable)
		}
		c.releaseIDs(meta, base)
	}
}

// TestStreamingSeesOwnInserts pins read-your-writes through the watermark
// filter: rows inserted by completed statements are visible to the very
// next streaming scan.
func TestStreamingSeesOwnInserts(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	f.mustExec(t, `INSERT INTO employees VALUES ('Zoe', 99, 4)`)
	res := f.mustExec(t, `SELECT name, salary FROM employees WHERE salary = 99`)
	if got := fmt.Sprint(rowsAsStrings(res)); got != "[Zoe,99]" {
		t.Fatalf("after insert: %s", got)
	}
}
