package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sssdb/internal/btree"
	"sssdb/internal/proto"
)

// indexedReads renders the answers of a fixed set of reads that go through
// the indexes of joinSpec tables "l" and "r": indexed scans in index order,
// a proved scan, grouped and picking aggregates under indexed filters, and
// joins each way.
func indexedReads(t *testing.T, s *Store) string {
	t.Helper()
	var b strings.Builder
	for _, name := range []string{"l", "r"} {
		for _, f := range []*proto.Filter{
			{Col: "k#o", Op: proto.FilterRange, Lo: oppCell(0), Hi: oppCell(1 << 40)},
			{Col: "k#o", Op: proto.FilterEq, Lo: oppCell(7)},
			{Col: "v#o", Op: proto.FilterRange, Lo: oppCell(100), Hi: oppCell(400)},
		} {
			resp, err := s.Scan(name, f, nil, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "scan %s %s: %s\n", name, f.Col, rowsDigest(resp.Rows))
		}
		proved, err := s.Scan(name, &proto.Filter{Col: "v#o", Op: proto.FilterRange, Lo: oppCell(200), Hi: oppCell(300)}, NoColumns, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "proved %s: %s %x\n", name, rowsDigest(proved.Rows), proved.Proof)
		for _, req := range []proto.AggregateRequest{
			{Table: name, Op: proto.AggSum, ValueCol: "v#f", GroupCol: "k#o",
				Filter: &proto.Filter{Col: "v#o", Op: proto.FilterRange, Lo: oppCell(0), Hi: oppCell(500)}},
			{Table: name, Op: proto.AggMax, ValueCol: "v#f", OrderCol: "v#o",
				Filter: &proto.Filter{Col: "k#o", Op: proto.FilterRange, Lo: oppCell(3), Hi: oppCell(11)}},
		} {
			res, err := s.Aggregate(&req)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "aggregate %s %d: %+v\n", name, req.Op, res)
		}
	}
	for _, req := range []proto.JoinRequest{
		{LeftTable: "l", LeftCol: "k#o", RightTable: "r", RightCol: "k#o"},
		{LeftTable: "r", LeftCol: "v#o", RightTable: "l", RightCol: "k#o", RightProj: []string{"note"},
			Filter: &proto.Filter{Col: "k#o", Op: proto.FilterRange, Lo: oppCell(2), Hi: oppCell(9)}},
	} {
		pairs, _ := drainJoin(t, s, &req, 512)
		fmt.Fprintf(&b, "join %s⋈%s: %s\n", req.LeftTable, req.RightTable, rowsDigest(pairs.Rows))
	}
	return b.String()
}

// rowsDigest renders rows as their count and a hash of their ids and cells
// in order.
func rowsDigest(rows []proto.Row) string {
	h := sha256.New()
	for _, r := range rows {
		h.Write(binary.BigEndian.AppendUint64(nil, r.ID))
		for _, c := range r.Cells {
			h.Write(binary.BigEndian.AppendUint64(nil, uint64(len(c))))
			h.Write(c)
		}
	}
	return fmt.Sprintf("%d rows %x", len(rows), h.Sum(nil))
}

// unbuilt requires that no read has built any column's state in s.
func unbuilt(t *testing.T, s *Store, when string) {
	t.Helper()
	for name, tb := range s.tables {
		if trees, merkles := built(tb); len(trees)+len(merkles) > 0 {
			t.Fatalf("%s: table %s has built the trees of %v and the Merkle state of %v before any read needed them",
				when, name, trees, merkles)
		}
	}
}

// built names the columns of tb whose tree, and those whose Merkle state, a
// read has built.
func built(tb *table) (trees, merkles []string) {
	tb.lazyMu.Lock()
	defer tb.lazyMu.Unlock()
	for ci, c := range tb.cols {
		if c.index != nil {
			trees = append(trees, tb.spec.Columns[ci].Name)
		}
		if c.merkle != nil {
			merkles = append(merkles, tb.spec.Columns[ci].Name)
		}
	}
	return trees, merkles
}

// TestFirstReadBuildsOnlyItsColumn: a read builds the state of the one
// column it walks and of no other — a filtered scan its filter column's
// tree, a join its right key column's, a proved scan its column's tree and
// Merkle state — and a row written afterwards is found through a column no
// read had built yet.
func TestFirstReadBuildsOnlyItsColumn(t *testing.T) {
	s := memStore(t)
	spec := proto.TableSpec{Name: "emp", Columns: []proto.ColumnSpec{
		{Name: "id#o", Kind: proto.KindOPP, Indexed: true, Width: oppCellSize},
		{Name: "name#o", Kind: proto.KindOPP, Indexed: true, Width: oppCellSize},
		{Name: "salary#o", Kind: proto.KindOPP, Indexed: true, Width: oppCellSize},
		{Name: "dept#o", Kind: proto.KindOPP, Indexed: true, Width: oppCellSize},
		{Name: "salary#f", Kind: proto.KindField},
	}}
	emp := func(id, salary, dept uint64) proto.Row {
		return proto.Row{ID: id, Cells: [][]byte{oppCell(id), oppCell(id * 7 % 1000), oppCell(salary), oppCell(dept), fieldCell(salary)}}
	}
	for _, spec := range []proto.TableSpec{spec, joinSpec("l"), joinSpec("r")} {
		if err := s.CreateTable(spec); err != nil {
			t.Fatal(err)
		}
	}
	var emps, ls []proto.Row
	for id := uint64(1); id <= 500; id++ {
		emps = append(emps, emp(id, 10*id, id%4))
		ls = append(ls, proto.Row{ID: id, Cells: [][]byte{oppCell(id % 5), oppCell(id), fieldCell(id), []byte("n")}})
	}
	for name, rows := range map[string][]proto.Row{"emp": emps, "l": ls, "r": ls} {
		if err := s.Insert(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	unbuilt(t, s, "after the load")
	expect := func(when string, want map[string][2][]string) {
		t.Helper()
		for _, name := range []string{"emp", "l", "r"} {
			trees, merkles := built(s.tables[name])
			if w := want[name]; !slices.Equal(trees, w[0]) || !slices.Equal(merkles, w[1]) {
				t.Fatalf("%s: table %s has built the trees of %v and the Merkle state of %v, want %v and %v",
					when, name, trees, merkles, w[0], w[1])
			}
		}
	}
	salary := []string{"salary#o"}
	if _, err := s.Scan("emp", &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(100), Hi: oppCell(200)}, NoColumns, 0, false); err != nil {
		t.Fatal(err)
	}
	expect("after a salary range", map[string][2][]string{"emp": {salary}})

	if pairs, _ := drainJoin(t, s, &proto.JoinRequest{LeftTable: "l", LeftCol: "k#o", RightTable: "r", RightCol: "k#o"}, 512); len(pairs.Rows) != 500*100 {
		t.Fatalf("the join gave %d pairs, want %d", len(pairs.Rows), 500*100)
	}
	expect("after a join", map[string][2][]string{"emp": {salary}, "r": {{"k#o"}}})

	proved, err := s.Scan("l", &proto.Filter{Col: "v#o", Op: proto.FilterRange, Lo: oppCell(10), Hi: oppCell(20)}, NoColumns, 0, true)
	if err != nil || len(proved.Rows) != 11 || proved.Proof == nil {
		t.Fatalf("proved scan: %v, %v", proved, err)
	}
	expect("after a proved scan", map[string][2][]string{"emp": {salary}, "l": {{"v#o"}, {"v#o"}}, "r": {{"k#o"}}})

	if err := s.Insert("emp", []proto.Row{emp(1000, 99999, 9)}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []*proto.Filter{
		{Col: "dept#o", Op: proto.FilterEq, Lo: oppCell(9)},       // unbuilt until this read
		{Col: "salary#o", Op: proto.FilterEq, Lo: oppCell(99999)}, // built, and maintained by the insert
	} {
		resp, err := s.Scan("emp", f, NoColumns, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Rows) != 1 || resp.Rows[0].ID != 1000 {
			t.Fatalf("a read through %s after the insert found %v, want row 1000", f.Col, resp.Rows)
		}
	}
	expect("after the insert", map[string][2][]string{"emp": {{"salary#o", "dept#o"}}, "l": {{"v#o"}, {"v#o"}}, "r": {{"k#o"}}})
}

// TestLazyIndexDifferential: indexes built at the end by one sort answer as
// indexes built at the first read and then maintained row by row. Two
// stores take the same random mutations of two joinSpec tables — batches
// of inserts, updates and deletes, and committed transactions; one reads
// through an index of a column picked at random after every mutation, so
// its columns are built at different points of the history, and the other
// reads nothing until the end. Indexed scans, a proved scan, aggregates and joins must then
// agree, as must every page and index entry (dumpStore); and so again after
// the lazy store reopens by WAL replay and after it reopens from a
// checkpoint's manifest, each time with no index built until a read.
func TestLazyIndexDifferential(t *testing.T) {
	rng := mrand.New(mrand.NewSource(43))
	eager, lazyDir := durableStore(t, t.TempDir()), t.TempDir()
	lazy := durableStore(t, lazyDir)
	defer func() { eager.Close(); lazy.Close() }()
	for _, s := range []*Store{eager, lazy} {
		for _, name := range []string{"l", "r"} {
			if err := s.CreateTable(joinSpec(name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cells := func() [][]byte {
		k, v := uint64(rng.Intn(20)), uint64(rng.Intn(1000))
		return [][]byte{oppCell(k), oppCell(v), fieldCell(v), []byte(fmt.Sprintf("n%d", v))}
	}
	live := map[string][]uint64{}
	pick := func(name string) (uint64, bool) {
		if len(live[name]) == 0 {
			return 0, false
		}
		return live[name][rng.Intn(len(live[name]))], true
	}
	nextID := uint64(1)
	for step := 0; step < 300; step++ {
		name := []string{"l", "r"}[rng.Intn(2)]
		var msg proto.Message
		switch op := rng.Intn(8); {
		case op < 4:
			m := &proto.InsertRequest{Table: name}
			for n := rng.Intn(30) + 1; n > 0; n-- {
				m.Rows = append(m.Rows, proto.Row{ID: nextID, Cells: cells()})
				live[name] = append(live[name], nextID)
				nextID += uint64(rng.Intn(3) + 1)
			}
			msg = m
		case op < 6:
			m := &proto.UpdateRequest{Table: name}
			seen := map[uint64]bool{}
			for n := rng.Intn(8); n > 0; n-- {
				if id, ok := pick(name); ok && !seen[id] {
					seen[id] = true
					m.Rows = append(m.Rows, proto.Row{ID: id, Cells: cells()})
				}
			}
			msg = m
		case op < 7:
			m := &proto.DeleteRequest{Table: name, RowIDs: []uint64{nextID + 5}} // one missing id
			for n := rng.Intn(8); n > 0; n-- {
				if i := len(live[name]); i > 0 {
					j := rng.Intn(i)
					m.RowIDs = append(m.RowIDs, live[name][j])
					live[name] = append(live[name][:j], live[name][j+1:]...)
				}
			}
			msg = m
		default: // a transaction: insert one row and delete another
			ops := []proto.Message{&proto.InsertRequest{Table: name, Rows: []proto.Row{{ID: nextID, Cells: cells()}}}}
			live[name] = append(live[name], nextID)
			nextID++
			if id, ok := pick(name); ok && id != nextID-1 {
				ops = append(ops, &proto.DeleteRequest{Table: name, RowIDs: []uint64{id}})
				live[name] = slices.DeleteFunc(live[name], func(x uint64) bool { return x == id })
			}
			msg = &proto.TxPrepareRequest{TxID: uint64(step + 1), Ops: encOps(t, ops...)}
		}
		for _, s := range []*Store{eager, lazy} {
			if _, err := s.Mutate(msg); err != nil {
				t.Fatalf("step %d: %T: %v", step, msg, err)
			}
			if tx, ok := msg.(*proto.TxPrepareRequest); ok {
				if _, err := s.Mutate(&proto.TxCommitRequest{TxID: tx.TxID}); err != nil {
					t.Fatalf("step %d: commit: %v", step, err)
				}
			}
		}
		col, k := []string{"k#o", "v#o"}[rng.Intn(2)], oppCell(uint64(rng.Intn(20)))
		if _, err := eager.Scan(name, &proto.Filter{Col: col, Op: proto.FilterEq, Lo: k}, NoColumns, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	unbuilt(t, lazy, "after the mutations")
	want, wantDump := indexedReads(t, eager), dumpStore(t, eager)
	check := func(when string) {
		t.Helper()
		if got := indexedReads(t, lazy); got != want {
			t.Fatalf("%s: the lazily built indexes answer otherwise:\n%s\nwant\n%s", when, got, want)
		}
		if got := dumpStore(t, lazy); got != wantDump {
			t.Fatalf("%s: pages or index entries differ", when)
		}
	}
	check("built at the end")

	reopen := func() {
		t.Helper()
		if err := lazy.Close(); err != nil {
			t.Fatal(err)
		}
		lazy = durableStore(t, lazyDir)
	}
	reopen()
	if lazy.RecoveredRecords() == 0 {
		t.Fatal("the reopen replayed no WAL record")
	}
	unbuilt(t, lazy, "after WAL replay")
	check("after WAL replay")

	if err := lazy.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopen()
	if n := lazy.RecoveredRecords(); n != 0 {
		t.Fatalf("the reopen after a checkpoint replayed %d WAL records", n)
	}
	unbuilt(t, lazy, "after a manifest restore")
	check("after a manifest restore")
}

// TestFirstIndexedReadsRaceInserts: the first indexed reads of a loaded
// table race each other and a stream of INSERTs and DELETEs. Each column's
// tree is built once — every reader's ask of each column's accessor finds
// the same tree — every read sees the stable rows exactly, and the indexes
// end holding exactly the heap's rows. The reads through v#o carry a proof,
// so the column's Merkle state is built, and rebuilt as writes land, by
// racing readers too.
func TestFirstIndexedReadsRaceInserts(t *testing.T) {
	s := memStore(t)
	if err := s.CreateTable(joinSpec("l")); err != nil {
		t.Fatal(err)
	}
	const stable = 2000
	var rows []proto.Row
	for id := uint64(1); id <= stable; id++ {
		rows = append(rows, proto.Row{ID: id, Cells: [][]byte{oppCell(id % 50), oppCell(id), fieldCell(id), []byte("s")}})
	}
	if err := s.Insert("l", rows); err != nil {
		t.Fatal(err)
	}
	unbuilt(t, s, "after the load")
	tb := s.tables["l"]
	start := make(chan struct{})
	var wg sync.WaitGroup
	const readers, reads, writers = 4, 8, 2
	errs := make(chan error, readers+writers)         // one error a goroutine at most
	trees := make(chan [2]*btree.Tree, readers*reads) // one send a read
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < reads; i++ {
				f := &proto.Filter{Col: []string{"k#o", "v#o"}[(r+i)%2], Op: proto.FilterRange, Lo: oppCell(0), Hi: oppCell(stable)}
				if f.Col == "k#o" {
					f.Lo, f.Hi = oppCell(10), oppCell(10) // the stable rows with k = 10
				}
				resp, err := s.Scan("l", f, NoColumns, 0, f.Col == "v#o")
				if err != nil {
					errs <- err
					return
				}
				want := stable
				if f.Col == "k#o" {
					want = stable / 50
				}
				if got := countStable(resp, stable); got != want {
					errs <- fmt.Errorf("reader %d: %s scan saw %d stable rows, want %d", r, f.Col, got, want)
					return
				}
				s.mu.RLock()
				k, err := tb.index(0)
				var v *btree.Tree
				if err == nil {
					v, err = tb.index(1)
				}
				s.mu.RUnlock()
				if err != nil {
					errs <- err
					return
				}
				trees <- [2]*btree.Tree{k, v}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			base := uint64(10_000 + w*10_000)
			for i := uint64(0); i < 200; i++ {
				id := base + i
				cells := [][]byte{oppCell(10), oppCell(stable + id), fieldCell(id), []byte("w")}
				if err := s.Insert("l", []proto.Row{{ID: id, Cells: cells}}); err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					if _, err := s.Delete("l", []uint64{id}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	close(trees)
	for err := range errs {
		t.Fatal(err)
	}
	first := <-trees
	for got := range trees {
		if got != first {
			t.Fatal("a reader found a tree other than the first reader's: a column was built twice")
		}
	}
	dumpStore(t, s) // each index holds exactly the heap's rows
}

// countStable counts the rows of resp with an id of the stable load.
func countStable(resp *proto.RowsResponse, stable uint64) int {
	n := 0
	for _, r := range resp.Rows {
		if r.ID <= stable {
			n++
		}
	}
	return n
}

// BenchmarkLoad loads 100 k rows of the benchmark fixture's emp shape (real
// order-preserving shares, see fixtureCells) into a memory store in
// 2 000-row Inserts, then runs the first indexed scan, a 100-row salary
// range, which builds the salary column's index. Into a second store it
// loads the same rows and runs one equality read through each of the four
// indexed columns, which builds them all. It reports in ms per iteration
// the first load (load-ms), the first read (first-read-ms) and the four
// reads together (all-reads-ms).
func BenchmarkLoad(b *testing.B) {
	const n, batch = 100_000, 2_000
	opp := fixtureCells(b, n)
	rng := mrand.New(mrand.NewSource(9))
	rows := make([]proto.Row, n)
	for id := range rows {
		cells := make([][]byte, 0, 8)
		for _, c := range opp[id] {
			cells = append(cells, c, fieldCell(rng.Uint64()))
		}
		rows[id] = proto.Row{ID: uint64(id), Cells: cells}
	}
	salaries := make([]string, n)
	for id, r := range opp {
		salaries[id] = string(r[2])
	}
	slices.Sort(salaries)
	lo, hi := []byte(salaries[n/2]), []byte(salaries[n/2+99]) // about 100 rows
	f := &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: lo, Hi: hi}
	var eqs []*proto.Filter
	for k, col := range []string{"id#o", "name#o", "salary#o", "dept#o"} {
		eqs = append(eqs, &proto.Filter{Col: col, Op: proto.FilterEq, Lo: opp[n/2][k]})
	}
	loaded := func() *Store {
		s := memStore(b)
		if err := s.CreateTable(empSpec()); err != nil {
			b.Fatal(err)
		}
		for at := 0; at < n; at += batch {
			if err := s.Insert("emp", rows[at:at+batch]); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	timed := func(s *Store, fs ...*proto.Filter) time.Duration {
		start := time.Now()
		for _, f := range fs {
			if _, err := s.Scan("emp", f, NoColumns, 0, false); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	var load, first, all time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		s := loaded()
		load += time.Since(start)
		first += timed(s, f)
		all += timed(loaded(), eqs...)
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(ms(load), "load-ms")
	b.ReportMetric(ms(first), "first-read-ms")
	b.ReportMetric(ms(all), "all-reads-ms")
}
