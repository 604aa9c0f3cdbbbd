package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"sssdb/internal/proto"
)

// joinSpec is a table whose columns a join test keys, filters and projects:
// two indexed order-preserving columns, a field share and a plain note.
func joinSpec(name string) proto.TableSpec {
	return proto.TableSpec{Name: name, Columns: []proto.ColumnSpec{
		{Name: "k#o", Kind: proto.KindOPP, Indexed: true, Width: oppCellSize},
		{Name: "v#o", Kind: proto.KindOPP, Indexed: true, Width: oppCellSize},
		{Name: "v#f", Kind: proto.KindField},
		{Name: "note", Kind: proto.KindPlain},
	}}
}

// hashJoin is the oracle the join cursor answers like: the hash join it
// replaced. It builds on the right table's rows in row id order and probes
// with the left side's rows in the order a scan of them yields, so each left
// row's pairs come in right row id order; a pair is the left row's id, its
// projected cells, the right id's 8 bytes, the right row's projected cells.
func hashJoin(t *testing.T, s *Store, req *proto.JoinRequest) *proto.RowsResponse {
	t.Helper()
	left, err := s.Scan(req.LeftTable, req.Filter, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	right, err := s.Scan(req.RightTable, nil, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	pick := func(cols []string, names []string, idsOnly bool) ([]string, []int) {
		names = Projection(names, idsOnly)
		if names == nil {
			names = cols
		}
		idx := make([]int, len(names))
		for i, n := range names {
			idx[i] = slices.Index(cols, n)
		}
		return names, idx
	}
	lNames, lIdx := pick(left.Columns, req.LeftProj, req.LeftIDsOnly)
	rNames, rIdx := pick(right.Columns, req.RightProj, req.RightIDsOnly)
	lk, rk := slices.Index(left.Columns, req.LeftCol), slices.Index(right.Columns, req.RightCol)
	build := map[string][]proto.Row{}
	for _, r := range right.Rows {
		build[string(r.Cells[rk])] = append(build[string(r.Cells[rk])], r)
	}
	out := &proto.RowsResponse{Columns: append(append(slices.Clone(lNames), proto.JoinRightID), rNames...)}
	for _, l := range left.Rows {
		for _, r := range build[string(l.Cells[lk])] {
			pair := proto.Row{ID: l.ID}
			for _, ci := range lIdx {
				pair.Cells = append(pair.Cells, l.Cells[ci])
			}
			pair.Cells = append(pair.Cells, binary.BigEndian.AppendUint64(nil, r.ID))
			for _, ci := range rIdx {
				pair.Cells = append(pair.Cells, r.Cells[ci])
			}
			out.Rows = append(out.Rows, pair)
		}
	}
	if req.Limit > 0 && uint64(len(out.Rows)) > req.Limit {
		out.Rows = out.Rows[:req.Limit]
	}
	return out
}

// drainJoin runs a join's cursor to its end in batches of batchBytes.
func drainJoin(t *testing.T, s *Store, req *proto.JoinRequest, batchBytes int) (*proto.RowsResponse, int) {
	t.Helper()
	cur, err := s.OpenJoin(req, batchBytes)
	if err != nil {
		t.Fatal(err)
	}
	return drainCursor(t, cur)
}

// TestJoinCursorMatchesHashJoin runs random joins — duplicate keys on both
// sides, empty sides, filtered and unfiltered left sides, left keys in
// random and in ascending order, limits, and batches small enough that the
// pairs span many — and requires the join cursor's pairs to be the hash-join
// oracle's exactly, in the same order, with the same right ids.
func TestJoinCursorMatchesHashJoin(t *testing.T) {
	rng := mrand.New(mrand.NewSource(38))
	for trial := 0; trial < 120; trial++ {
		s := memStore(t)
		size := map[string]int{"l": rng.Intn(120), "r": rng.Intn(120)}
		switch trial {
		case 0:
			size["l"] = 0
		case 1:
			size["r"] = 0
		}
		keys := 1 + rng.Intn(12) // few keys: duplicates on both sides
		for _, name := range []string{"l", "r"} {
			if err := s.CreateTable(joinSpec(name)); err != nil {
				t.Fatal(err)
			}
			var rows []proto.Row
			for _, id := range rng.Perm(size[name] * 3)[:size[name]] {
				v, k := uint64(rng.Intn(50)), uint64(rng.Intn(keys))
				if trial%6 == 5 { // keys ascending with row ids, so with a heap walk
					k = uint64(id * keys / (size[name]*3 + 1))
				}
				rows = append(rows, proto.Row{ID: uint64(id) + 1, Cells: [][]byte{
					oppCell(k), oppCell(v), fieldCell(v * 7), []byte(fmt.Sprintf("n%d", rng.Intn(30))),
				}})
			}
			if len(rows) > 0 {
				if err := s.Insert(name, rows); err != nil {
					t.Fatal(err)
				}
			}
		}
		req := &proto.JoinRequest{LeftTable: "l", LeftCol: "k#o", RightTable: "r", RightCol: "k#o"}
		switch trial % 4 {
		case 1:
			lo := uint64(rng.Intn(50))
			req.Filter = &proto.Filter{Col: "v#o", Op: proto.FilterRange, Lo: oppCell(lo), Hi: oppCell(lo + uint64(rng.Intn(20)))}
		case 2:
			req.Filter = &proto.Filter{Col: "note", Op: proto.FilterRange, Lo: []byte("n1"), Hi: []byte("n2")}
		case 3: // an index walk on the key itself: keys ascending
			lo := uint64(rng.Intn(keys))
			req.Filter = &proto.Filter{Col: "k#o", Op: proto.FilterRange, Lo: oppCell(lo), Hi: oppCell(lo + uint64(rng.Intn(keys)))}
		}
		switch trial % 3 {
		case 1:
			req.LeftProj, req.RightProj = []string{"v#f", "note"}, []string{"note", "k#o"}
		case 2:
			req.LeftIDsOnly, req.RightIDsOnly = true, true
		}
		if trial%5 == 4 {
			req.Limit = uint64(1 + rng.Intn(40))
		}
		want := hashJoin(t, s, req)
		for _, batchBytes := range []int{1, 64, 0} {
			got, batches := drainJoin(t, s, req, batchBytes)
			if !reflect.DeepEqual(got.Columns, want.Columns) || !sameRows(got, want) {
				t.Fatalf("trial %d (%+v), batches of %d bytes: %d pairs %v, want %d %v",
					trial, req, batchBytes, len(got.Rows), got.Columns, len(want.Rows), want.Columns)
			}
			// A batch ends after the left row whose pairs fill it: one
			// byte is filled by any row's pairs.
			if lefts := len(slices.CompactFunc(slices.Clone(want.Rows), func(a, b proto.Row) bool { return a.ID == b.ID })); batchBytes == 1 && batches != lefts {
				t.Fatalf("trial %d: the pairs of %d left rows came in %d one-byte batches", trial, lefts, batches)
			}
		}
	}
}

// TestJoin pins a small join's pairs, its filter and its refusals.
func TestJoin(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	managers := proto.TableSpec{
		Name: "managers",
		Columns: []proto.ColumnSpec{
			{Name: "eid#o", Kind: proto.KindOPP, Indexed: true, Width: oppCellSize},
			{Name: "level#f", Kind: proto.KindField},
		},
	}
	if err := s.CreateTable(managers); err != nil {
		t.Fatal(err)
	}
	// employees keyed by salary#o here standing in for eid; rows 1..4.
	for i := uint64(1); i <= 4; i++ {
		if err := s.Insert("employees", []proto.Row{row(i, i)}); err != nil {
			t.Fatal(err)
		}
	}
	// managers reference eids 2 and 4; eid 2 twice.
	mrow := func(id, eid, lvl uint64) proto.Row {
		return proto.Row{ID: id, Cells: [][]byte{oppCell(eid), fieldCell(lvl)}}
	}
	if err := s.Insert("managers", []proto.Row{mrow(1, 2, 100), mrow(2, 4, 200), mrow(3, 2, 300)}); err != nil {
		t.Fatal(err)
	}
	res, _ := drainJoin(t, s, &proto.JoinRequest{
		LeftTable: "employees", LeftCol: "salary#o",
		RightTable: "managers", RightCol: "eid#o",
		LeftProj: []string{"salary#f"}, RightProj: []string{"level#f"},
	}, 0)
	if !slices.Equal(res.Columns, []string{"salary#f", proto.JoinRightID, "level#f"}) {
		t.Fatalf("join columns: %v", res.Columns)
	}
	var pairs [][2]uint64
	for _, pair := range res.Rows {
		if len(pair.Cells) != 3 {
			t.Fatalf("joined cells: %d", len(pair.Cells))
		}
		pairs = append(pairs, [2]uint64{pair.ID, binary.BigEndian.Uint64(pair.Cells[1])})
	}
	if want := [][2]uint64{{2, 1}, {2, 3}, {4, 2}}; !reflect.DeepEqual(pairs, want) {
		t.Fatalf("pairs %v, want %v", pairs, want)
	}
	// Filter restricts the left side, and Limit the pairs.
	res, _ = drainJoin(t, s, &proto.JoinRequest{
		LeftTable: "employees", LeftCol: "salary#o",
		RightTable: "managers", RightCol: "eid#o",
		Filter: &proto.Filter{Col: "salary#o", Op: proto.FilterEq, Lo: oppCell(4)},
	}, 0)
	if len(res.Rows) != 1 || res.Rows[0].ID != 4 {
		t.Fatalf("filtered join: %+v", res.Rows)
	}
	res, _ = drainJoin(t, s, &proto.JoinRequest{
		LeftTable: "employees", LeftCol: "salary#o", RightTable: "managers", RightCol: "eid#o", Limit: 1,
	}, 0)
	if len(res.Rows) != 1 || res.Rows[0].ID != 2 {
		t.Fatalf("join limited to one pair: %+v", res.Rows)
	}
	// Error cases.
	for _, tc := range []struct {
		req  *proto.JoinRequest
		want error
	}{
		{&proto.JoinRequest{LeftTable: "zz", RightTable: "managers", LeftCol: "a", RightCol: "b"}, ErrNoSuchTable},
		{&proto.JoinRequest{LeftTable: "employees", LeftCol: "salary#f", RightTable: "managers", RightCol: "eid#o"}, ErrBadRequest},
		{&proto.JoinRequest{LeftTable: "employees", LeftCol: "nope", RightTable: "managers", RightCol: "eid#o"}, ErrNoSuchColumn},
		// Only an indexed right column can be seeked.
		{&proto.JoinRequest{LeftTable: "employees", LeftCol: "note", RightTable: "employees", RightCol: "note"}, ErrBadRequest},
	} {
		if _, err := s.OpenJoin(tc.req, 0); !errors.Is(err, tc.want) {
			t.Errorf("join %+v: %v, want %v", tc.req, err, tc.want)
		}
	}
}

// TestJoinCursorLosesDroppedTable: the cursor finds both tables again for
// every batch, and one dropped, or dropped and made again, since the join
// began fails the join instead of pairing rows of two tables (or seeking an
// index with a key of another width).
func TestJoinCursorLosesDroppedTable(t *testing.T) {
	s := memStore(t)
	for _, name := range []string{"l", "r"} {
		if err := s.CreateTable(joinSpec(name)); err != nil {
			t.Fatal(err)
		}
		var rows []proto.Row
		for id := uint64(1); id <= 50; id++ {
			rows = append(rows, proto.Row{ID: id, Cells: [][]byte{oppCell(id % 5), oppCell(id), fieldCell(id), []byte("n")}})
		}
		if err := s.Insert(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := s.OpenJoin(&proto.JoinRequest{LeftTable: "l", LeftCol: "k#o", RightTable: "r", RightCol: "k#o"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := cur.Next(); err != nil || len(b.Rows) == 0 {
		t.Fatalf("first batch: %v, %v", b, err)
	}
	if err := s.DropTable("r"); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("batch after the right table was dropped: %v, want ErrNoSuchTable", err)
	}
	cur, err = s.OpenJoin(&proto.JoinRequest{LeftTable: "l", LeftCol: "k#o", RightTable: "l", RightCol: "k#o"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("l"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(joinSpec("l")); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("batch after the right table was made again: %v, want ErrBadRequest", err)
	}
	// A left table made again with a key of another width: the join fails
	// rather than seek the right index with it.
	other := joinSpec("r")
	if err := s.CreateTable(other); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("r", []proto.Row{{ID: 1, Cells: [][]byte{oppCell(1), oppCell(1), fieldCell(1), nil}}, {ID: 2, Cells: [][]byte{oppCell(1), oppCell(2), fieldCell(2), nil}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("l", []proto.Row{{ID: 1, Cells: [][]byte{oppCell(1), oppCell(1), fieldCell(1), nil}}}); err != nil {
		t.Fatal(err)
	}
	cur, err = s.OpenJoin(&proto.JoinRequest{LeftTable: "r", LeftCol: "k#o", RightTable: "l", RightCol: "k#o"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := cur.Next(); err != nil || len(b.Rows) != 1 {
		t.Fatalf("first batch: %v, %v", b, err)
	}
	if err := s.DropTable("r"); err != nil {
		t.Fatal(err)
	}
	other.Columns[0].Width = oppCellSize + 1
	if err := s.CreateTable(other); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("r", []proto.Row{{ID: 3, Cells: [][]byte{make([]byte, oppCellSize+1), oppCell(3), fieldCell(3), nil}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("batch after the left table was made again: %v, want ErrBadRequest", err)
	}
}

// joinFixture loads a(id, k, r) with n rows and d(k, y) with n/50: d's keys
// are distinct, each is the k of 50 rows of a (k cycles through them in row
// id order, r is one of them at random), and y = k mod n/500 picks 10 rows of
// d for every y — so "d filtered on y ⋈ a" is 500 pairs at any n.
func joinFixture(b *testing.B, n int) *Store {
	s, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	nd := n / 50
	spec := func(name string, cols ...string) proto.TableSpec {
		ts := proto.TableSpec{Name: name}
		for _, c := range cols {
			ts.Columns = append(ts.Columns, proto.ColumnSpec{Name: c, Kind: proto.KindOPP, Indexed: true, Width: oppCellSize})
		}
		return ts
	}
	for _, ts := range []proto.TableSpec{spec("a", "id#o", "k#o", "r#o"), spec("d", "k#o", "y#o")} {
		if err := s.CreateTable(ts); err != nil {
			b.Fatal(err)
		}
	}
	rng := mrand.New(mrand.NewSource(int64(n)))
	var rows []proto.Row
	for i := 1; i <= n; i++ {
		rows = append(rows, proto.Row{ID: uint64(i), Cells: [][]byte{oppCell(uint64(i)), oppCell(uint64(i % nd)), oppCell(uint64(rng.Intn(nd)))}})
	}
	if err := s.Insert("a", rows); err != nil {
		b.Fatal(err)
	}
	rows = rows[:0]
	for k := 0; k < nd; k++ {
		rows = append(rows, proto.Row{ID: uint64(k + 1), Cells: [][]byte{oppCell(uint64(k)), oppCell(uint64(k % (nd / 10)))}})
	}
	if err := s.Insert("d", rows); err != nil {
		b.Fatal(err)
	}
	runtime.GC() // the load's garbage is not the first shape's to collect
	return s
}

// BenchmarkJoin times the provider's join in five shapes over a(id, k, r)
// with 5 k and 50 k rows and d(k, y) with a fiftieth of that (joinFixture): a
// filtered dimension ⋈ the fact table (500 pairs at either size), a 51-row id
// range of the fact table ⋈ the dimension, and each unfiltered table ⋈ the
// other (one pair per row of a), the fact table's keys in ascending cycles
// (k) and at random (r). A join priced by its answer times the first two
// shapes the same at both sizes.
func BenchmarkJoin(b *testing.B) {
	shapes := []struct {
		name  string
		req   proto.JoinRequest
		pairs func(n int) int
	}{
		{"d-filtered-join-a", proto.JoinRequest{LeftTable: "d", LeftCol: "k#o", RightTable: "a", RightCol: "k#o",
			LeftProj: []string{"y#o"}, RightProj: []string{"id#o"},
			Filter: &proto.Filter{Col: "y#o", Op: proto.FilterEq, Lo: oppCell(3)}}, func(int) int { return 500 }},
		{"a-range-join-d", proto.JoinRequest{LeftTable: "a", LeftCol: "k#o", RightTable: "d", RightCol: "k#o",
			LeftProj: []string{"id#o"}, RightProj: []string{"y#o"},
			Filter: &proto.Filter{Col: "id#o", Op: proto.FilterRange, Lo: oppCell(1000), Hi: oppCell(1050)}}, func(int) int { return 51 }},
		{"a-join-d", proto.JoinRequest{LeftTable: "a", LeftCol: "k#o", RightTable: "d", RightCol: "k#o",
			LeftProj: []string{"id#o"}, RightProj: []string{"y#o"}}, func(n int) int { return n }},
		{"d-join-a", proto.JoinRequest{LeftTable: "d", LeftCol: "k#o", RightTable: "a", RightCol: "k#o",
			LeftProj: []string{"y#o"}, RightProj: []string{"id#o"}}, func(n int) int { return n }},
		{"a-random-join-d", proto.JoinRequest{LeftTable: "a", LeftCol: "r#o", RightTable: "d", RightCol: "k#o",
			LeftProj: []string{"id#o"}, RightProj: []string{"y#o"}}, func(n int) int { return n }},
	}
	for _, n := range []int{5_000, 50_000} {
		s := joinFixture(b, n)
		for _, shape := range shapes {
			b.Run(fmt.Sprintf("rows=%d/%s", n, shape.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pairs, err := joinPairs(s, &shape.req)
					if err != nil {
						b.Fatal(err)
					}
					if pairs != shape.pairs(n) {
						b.Fatalf("%d pairs, want %d", pairs, shape.pairs(n))
					}
				}
			})
		}
	}
}

// joinPairs runs a join to its end and counts its pairs.
func joinPairs(s *Store, req *proto.JoinRequest) (int, error) {
	cur, err := s.OpenJoin(req, 0)
	if err != nil {
		return 0, err
	}
	pairs := 0
	for {
		b, err := cur.Next()
		if b == nil || err != nil {
			return pairs, err
		}
		pairs += len(b.Rows)
	}
}
